// Package grid holds the small domain-decomposition and vector-comparison
// helpers shared by the experiment binaries and examples: contiguous
// near-equal partitioning of a row range across ranks, and cosine
// similarity for mode validation.
package grid

import (
	"fmt"
	"math"
)

// Range is a half-open interval [Start, End) of row indices.
type Range struct {
	Start, End int
}

// Len returns the number of rows in the range.
func (r Range) Len() int { return r.End - r.Start }

// Partition splits n items into p contiguous ranges whose sizes differ by
// at most one, in index order. It panics unless 1 ≤ p ≤ n.
func Partition(n, p int) []Range {
	if p < 1 || n < p {
		panic(fmt.Sprintf("grid: cannot partition %d items into %d parts", n, p))
	}
	out := make([]Range, p)
	base, rem := n/p, n%p
	off := 0
	for r := 0; r < p; r++ {
		size := base
		if r < rem {
			size++
		}
		out[r] = Range{Start: off, End: off + size}
		off += size
	}
	return out
}

// AbsCosine returns |⟨a, b⟩| / (‖a‖·‖b‖), the sign-insensitive cosine
// similarity used to validate extracted modes against reference patterns.
// It returns 0 if either vector is zero. It panics on length mismatch.
func AbsCosine(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("grid: AbsCosine length mismatch %d vs %d", len(a), len(b)))
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return math.Abs(dot) / math.Sqrt(na*nb)
}

// Package testutil provides shared helpers for the goparsvd test suites:
// deterministic random matrix factories, orthonormality checks, and
// sign-invariant comparison of singular-vector sets (singular vectors are
// only defined up to a per-column sign, so direct element comparison between
// two SVD implementations is meaningless without alignment).
package testutil

import (
	"math"
	"math/rand"
	"testing"

	"goparsvd/internal/mat"
)

// NewRand returns a deterministic RNG for reproducible tests.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// RandomDense returns an r×c matrix of standard normal entries.
func RandomDense(r, c int, rng *rand.Rand) *mat.Dense {
	m := mat.New(r, c)
	data := m.RawData()
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return m
}

// RandomOrthonormal returns an n×k matrix (k ≤ n) with orthonormal columns,
// built by (twice-iterated) modified Gram–Schmidt on a Gaussian matrix. It
// deliberately does not use package linalg, so it can serve as an
// independent oracle in linalg's own tests.
func RandomOrthonormal(n, k int, rng *rand.Rand) *mat.Dense {
	if k > n {
		panic("testutil: RandomOrthonormal needs k <= n")
	}
	q := RandomDense(n, k, rng)
	for pass := 0; pass < 2; pass++ { // re-orthogonalize for stability
		for j := 0; j < k; j++ {
			col := q.Col(j)
			for p := 0; p < j; p++ {
				prev := q.Col(p)
				mat.Axpy(-mat.Dot(prev, col), prev, col)
			}
			norm := mat.Nrm2(col)
			if norm < 1e-300 {
				// Degenerate draw: replace with a fresh random direction.
				for i := range col {
					col[i] = rng.NormFloat64()
				}
				norm = mat.Nrm2(col)
			}
			for i := range col {
				col[i] /= norm
			}
			q.SetCol(j, col)
		}
	}
	return q
}

// RandomLowRank returns an m×n matrix of the given rank with singular values
// decaying geometrically from 1.0, plus iid Gaussian noise of the given
// standard deviation. It also returns the exact singular values of the
// noise-free part.
func RandomLowRank(m, n, rank int, noise float64, rng *rand.Rand) (*mat.Dense, []float64) {
	u := RandomOrthonormal(m, rank, rng)
	v := RandomOrthonormal(n, rank, rng)
	s := make([]float64, rank)
	for i := range s {
		s[i] = math.Pow(0.5, float64(i))
	}
	a := mat.MulTransB(mat.MulDiag(u, s), v)
	if noise > 0 {
		data := a.RawData()
		for i := range data {
			data[i] += noise * rng.NormFloat64()
		}
	}
	return a, s
}

// GradedBatch returns an m×n matrix U·diag(σ)·Vᵀ with random orthonormal
// U and V and singular values graded over twelve decades,
// σ_j = 10^(−12j/(n−1)), and those singular values.
func GradedBatch(m, n int, rng *rand.Rand) (*mat.Dense, []float64) {
	u := RandomOrthonormal(m, n, rng)
	v := RandomOrthonormal(n, n, rng)
	s := make([]float64, n)
	for j := range s {
		s[j] = math.Pow(10, -12*float64(j)/float64(max(n-1, 1)))
	}
	return mat.MulTransB(mat.MulDiag(u, s), v), s
}

// RandomSPD returns a random symmetric positive semi-definite n×n matrix
// with the given eigenvalues.
func RandomSPD(n int, eigs []float64, rng *rand.Rand) *mat.Dense {
	v := RandomOrthonormal(n, n, rng)
	return mat.MulTransB(mat.MulDiag(v, eigs), v)
}

// CheckOrthonormalColumns fails the test if the columns of m are not
// orthonormal within tol (‖MᵀM − I‖_max ≤ tol).
func CheckOrthonormalColumns(t *testing.T, name string, m *mat.Dense, tol float64) {
	t.Helper()
	if loss := OrthonormalityLoss(m); !(loss <= tol) {
		t.Fatalf("%s: columns not orthonormal: ‖MᵀM−I‖_max = %.3e > %.3e", name, loss, tol)
	}
}

// CheckUpperTriangular fails the test if m has an element below the main
// diagonal larger than tol in magnitude.
func CheckUpperTriangular(t *testing.T, name string, m *mat.Dense, tol float64) {
	t.Helper()
	r, c := m.Dims()
	for i := 1; i < r; i++ {
		for j := 0; j < i && j < c; j++ {
			if math.Abs(m.At(i, j)) > tol {
				t.Fatalf("%s: not upper triangular at (%d,%d): %.3e", name, i, j, m.At(i, j))
			}
		}
	}
}

// AlignColumnSigns returns a copy of b with each column negated if that
// makes it better aligned (larger inner product) with the corresponding
// column of a. Both matrices must have identical shapes.
func AlignColumnSigns(a, b *mat.Dense) *mat.Dense {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		panic("testutil: AlignColumnSigns shape mismatch")
	}
	out := b.Clone()
	for j := 0; j < ac; j++ {
		dot := 0.0
		for i := 0; i < ar; i++ {
			dot += a.At(i, j) * b.At(i, j)
		}
		if dot < 0 {
			for i := 0; i < ar; i++ {
				out.Set(i, j, -out.At(i, j))
			}
		}
	}
	return out
}

// MaxColumnError returns max_j ‖a_j − sign-aligned b_j‖₂: the largest
// per-column 2-norm discrepancy after sign alignment.
func MaxColumnError(a, b *mat.Dense) float64 {
	ba := AlignColumnSigns(a, b)
	_, c := a.Dims()
	worst := 0.0
	for j := 0; j < c; j++ {
		diff := 0.0
		for i := 0; i < a.Rows(); i++ {
			d := a.At(i, j) - ba.At(i, j)
			diff += d * d
		}
		if e := math.Sqrt(diff); e > worst {
			worst = e
		}
	}
	return worst
}

// SubspaceError measures how far the column spaces of a and b are apart:
// ‖A·Aᵀ − B·Bᵀ‖_F / sqrt(2k), which is 0 for identical subspaces and 1 for
// orthogonal ones. Unlike MaxColumnError it is invariant to rotations within
// the subspace, which matters when singular values are (nearly) degenerate.
func SubspaceError(a, b *mat.Dense) float64 {
	_, k := a.Dims()
	pa := mat.MulTransB(a, a)
	pb := mat.MulTransB(b, b)
	return mat.Sub(pa, pb).FroNorm() / math.Sqrt(2*float64(k))
}

// CheckSVD verifies the three defining SVD properties of the factorization
// (u, s, v) of a: orthonormal U and V columns, descending non-negative s,
// and reconstruction U·diag(s)·Vᵀ = a within tol (relative to ‖a‖_F).
func CheckSVD(t *testing.T, name string, a, u *mat.Dense, s []float64, v *mat.Dense, tol float64) {
	t.Helper()
	CheckOrthonormalColumns(t, name+"/U", u, tol)
	CheckOrthonormalColumns(t, name+"/V", v, tol)
	for i, sv := range s {
		if sv < 0 {
			t.Fatalf("%s: negative singular value s[%d] = %g", name, i, sv)
		}
		if i > 0 && s[i] > s[i-1]+tol {
			t.Fatalf("%s: singular values not descending: s[%d]=%g > s[%d]=%g",
				name, i, s[i], i-1, s[i-1])
		}
	}
	recon := mat.MulTransB(mat.MulDiag(u, s), v)
	norm := a.FroNorm()
	if norm == 0 {
		norm = 1
	}
	if rel := mat.Sub(a, recon).FroNorm() / norm; rel > tol {
		t.Fatalf("%s: reconstruction error %.3e > %.3e", name, rel, tol)
	}
}

// Close reports whether a and b agree within tol.
func Close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// CloseSlices reports whether float slices agree element-wise within tol.
func CloseSlices(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// OrthonormalityLoss returns ‖MᵀM − I‖_max, the departure of m's columns
// from orthonormality.
func OrthonormalityLoss(m *mat.Dense) float64 {
	gram := mat.MulTransA(m, m)
	n := gram.Rows()
	var loss float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if d := math.Abs(gram.At(i, j) - want); !(d <= loss) {
				loss = d // also propagates NaN
			}
		}
	}
	return loss
}

// HostileBatch returns the i-th m×b batch of a long-horizon soak, cycling
// through inputs that stress a streaming update: Gaussian, exactly
// rank-deficient (two distinct columns, repeated), all-zero, every column
// at 1e-150, every column at 1e150, and columns mixing 1e150, 1, 1e-150
// and exact zeros.
func HostileBatch(m, b, i int, rng *rand.Rand) *mat.Dense {
	a := RandomDense(m, b, rng)
	d := a.RawData()
	scale := func(f func(j int) float64) {
		for r := 0; r < m; r++ {
			for j := 0; j < b; j++ {
				d[r*b+j] *= f(j)
			}
		}
	}
	switch i % 6 {
	case 1:
		for r := 0; r < m; r++ {
			for j := 2; j < b; j++ {
				d[r*b+j] = d[r*b+j%2]
			}
		}
	case 2:
		a.Zero()
	case 3:
		scale(func(int) float64 { return 1e-150 })
	case 4:
		scale(func(int) float64 { return 1e150 })
	case 5:
		scale(func(j int) float64 { return [...]float64{1e150, 1, 1e-150, 0}[j%4] })
	}
	return a
}

// NonFiniteLengths are the batch lengths the finiteness checks are
// driven at: every tail of a 4-wide unrolled pass from 1 to 17 values,
// and a full 4096-value snapshot column.
var NonFiniteLengths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 4096}

// ForEachNonFinite calls f with a slice of each NonFiniteLengths length
// holding finite values (huge, tiny, subnormal and signed zeros among
// them) except for one NaN, +Inf or −Inf at index bad — for every index
// and every one of the three. f must not keep x.
func ForEachNonFinite(f func(x []float64, bad int)) {
	finite := []float64{1, -2.5, math.MaxFloat64, -math.MaxFloat64, 0x1p-1074, math.Copysign(0, -1), 0, 1e-300}
	for _, n := range NonFiniteLengths {
		x := make([]float64, n)
		for i := range x {
			x[i] = finite[i%len(finite)]
		}
		for bad := range x {
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				keep := x[bad]
				x[bad] = v
				f(x, bad)
				x[bad] = keep
			}
		}
	}
}

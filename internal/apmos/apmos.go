// Package apmos implements the approximate partitioned method of snapshots
// (Wang, McBee & Iliescu 2016), the distributed-SVD building block of
// PyParSVD (paper §3.2, Algorithm 2, Listing 3).
//
// The data matrix A ∈ R^{M×N} (M grid points ≫ N snapshots) is partitioned
// by rows across P ranks; rank i holds A_i ∈ R^{M_i×N}. Each rank computes
// its local right singular vectors, the truncated factors are gathered at
// rank 0 into W = [Ṽ¹(Σ̃¹)ᵀ | … | Ṽᴾ(Σ̃ᴾ)ᵀ], an SVD of W yields the global
// right basis X and singular values Λ, and every rank assembles its slice
// of the global left singular vectors as Ũʲᵢ = (1/Λ_j)·A_i·X_j.
//
// With no truncation (r1 = N) the method is exact, because
// AᵀA = Σᵢ AᵢᵀAᵢ = W·Wᵀ; the r1/r2 thresholds trade accuracy for
// communication volume exactly as the paper describes.
package apmos

import (
	"fmt"
	"math"

	"goparsvd/internal/linalg"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/rla"
)

// Method selects how each rank computes its local right singular vectors.
type Method int

const (
	// MethodGram uses the method of snapshots: the eigen/SVD decomposition
	// of the N×N Gram matrix AᵢᵀAᵢ. This is the paper's choice ("one may
	// also perform a method of snapshots approach ... provided Mᵢ ≫ N")
	// and the cheaper path when local blocks are tall.
	MethodGram Method = iota
	// MethodSVD computes a thin SVD of the local block directly. More
	// accurate for small singular values, costlier for tall blocks.
	MethodSVD
)

// Options configures a distributed APMOS decomposition.
type Options struct {
	// K is the number of global modes (left singular vectors) to assemble.
	K int
	// R1 is the number of right-vector columns each rank contributes to
	// the gathered W matrix (paper default: 50). Zero means min(50, N).
	R1 int
	// R2 is the number of columns of X broadcast back to the ranks (paper
	// default: 5). Zero means max(K, 5). K is clamped to R2.
	R2 int
	// Method selects the local right-vector computation.
	Method Method
	// LowRank switches the root SVD of W to the randomized algorithm.
	LowRank bool
	// RLA configures the randomized SVD when LowRank is set.
	RLA rla.Options
}

func (o Options) withDefaults(n int) Options {
	if o.K <= 0 {
		o.K = 10
	}
	if o.R1 <= 0 {
		o.R1 = 50
	}
	if o.R1 > n {
		o.R1 = n
	}
	if o.R2 <= 0 {
		o.R2 = o.K
		if o.R2 < 5 {
			o.R2 = 5
		}
	}
	if o.K > o.R2 {
		o.K = o.R2
	}
	if o.RLA.IsZero() {
		o.RLA = rla.DefaultOptions()
	}
	return o
}

// GenerateRightVectors computes the leading r1 right singular vectors and
// singular values of the local block a (the paper's
// `generate_right_vectors`). The returned V is N×r1 and s has length r1.
func GenerateRightVectors(a *mat.Dense, r1 int, method Method) (v *mat.Dense, s []float64) {
	_, n := a.Dims()
	if r1 > n {
		r1 = n
	}
	if r1 < 1 {
		panic(fmt.Sprintf("apmos: r1 = %d < 1", r1))
	}
	switch method {
	case MethodGram:
		// Method of snapshots: AᵀA = V·Σ²·Vᵀ. The Gram matrix is symmetric
		// PSD, so its SVD coincides with its eigendecomposition and we can
		// reuse the fast Golub–Reinsch path. A block far outside the unit
		// range is first scaled by an exact power of two, so its Gram
		// neither overflows nor underflows; V is unchanged by the scaling.
		if e := linalg.Equilibration(a); e != 0 {
			v, s = GenerateRightVectors(mat.Scale(math.Ldexp(1, e), a), r1, method)
			for i := range s {
				s[i] = math.Ldexp(s[i], -e)
			}
			return v, s
		}
		gram := mat.MulTransA(a, a)
		vg, s2, _ := linalg.SVD(gram)
		s = make([]float64, r1)
		for i := 0; i < r1; i++ {
			if s2[i] > 0 {
				s[i] = math.Sqrt(s2[i])
			}
		}
		return vg.SliceCols(0, r1), s
	case MethodSVD:
		_, sf, vf := linalg.SVD(a)
		if len(sf) < r1 {
			// Pad with zero columns/values so the caller always sees r1.
			padV := mat.New(n, r1)
			for j := 0; j < vf.Cols(); j++ {
				padV.SetCol(j, vf.Col(j))
			}
			padS := make([]float64, r1)
			copy(padS, sf)
			return padV, padS
		}
		return vf.SliceCols(0, r1), sf[:r1]
	default:
		panic(fmt.Sprintf("apmos: unknown method %d", method))
	}
}

// Decompose runs Algorithm 2 over the communicator: a is this rank's row
// block A_i of the global snapshot matrix. It returns this rank's slice of
// the K global modes (M_i×K) and the K global singular values; both are
// valid on every rank.
func Decompose(c *mpi.Comm, a *mat.Dense, opts Options) (modes *mat.Dense, s []float64) {
	_, n := a.Dims()
	opts = opts.withDefaults(n)

	// Step 1–2: local right vectors, truncated to r1 columns.
	vlocal, slocal := GenerateRightVectors(a, opts.R1, opts.Method)

	// Step 3: W_i = Ṽᵢ·diag(Σ̃ᵢ), gathered at rank 0 (paper Listing 3:
	// wlocal = vlocal · diag(slocal)ᵀ; comm.gather(wlocal, root=0)).
	wlocal := mat.MulDiag(vlocal, slocal)
	gathered := c.GatherMatrix(0, wlocal)

	// Step 4–5: SVD of W at the root, truncated to r2 columns.
	var x *mat.Dense
	var lam []float64
	if c.Rank() == 0 {
		wglobal := mat.HStack(gathered...)
		if opts.LowRank {
			var err error
			x, lam, err = rla.LowRankSVD(wglobal, opts.R2, opts.RLA)
			if err != nil {
				// withDefaults pins R2 >= 1 and wglobal is never empty, so
				// a rejection here is a broken internal invariant.
				panic(fmt.Sprintf("apmos: low-rank SVD: %v", err))
			}
		} else {
			x, lam, _ = linalg.SVD(wglobal)
		}
		if x.Cols() > opts.R2 {
			x = x.SliceCols(0, opts.R2)
			lam = lam[:opts.R2]
		}
	}

	// Step 6: broadcast X̃ and Λ̃ to every rank.
	x = c.BcastMatrix(0, x)
	lam = c.BcastFloats(0, lam)

	// Step 7: local slice of each global mode, Ũʲᵢ = (1/Λ_j)·A_i·X_j. The
	// 1/Λ scaling runs in place on the product, sparing an intermediate.
	k := opts.K
	if k > len(lam) {
		k = len(lam)
	}
	inv := make([]float64, k)
	for j := 0; j < k; j++ {
		if lam[j] > 0 {
			inv[j] = 1 / lam[j]
		}
	}
	modes = mat.Mul(a, x.SliceCols(0, k))
	mat.MulDiagInto(modes, modes, inv)
	return modes, lam[:k]
}

// DecomposeSerial is the single-process reference: the exact truncated SVD
// of the full matrix, returning the leading K modes and singular values. It
// is what Decompose converges to as r1 → N.
func DecomposeSerial(a *mat.Dense, k int) (modes *mat.Dense, s []float64) {
	u, sv, _ := linalg.SVDTruncated(a, k)
	return u, sv
}

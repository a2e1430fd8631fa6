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
// singular values of the local block A_i (the paper's
// `generate_right_vectors`) from its transpose at = Aᵢᵀ, the N×M_i matrix
// whose row j is snapshot j's M_i values, by the method of snapshots: the
// SVD of the N×N Gram matrix AᵢᵀAᵢ = V·Σ²·Vᵀ, the paper's choice ("one may
// also perform a method of snapshots approach ... provided Mᵢ ≫ N"). The
// returned V is N×r1 and s has length r1; a block of fewer than r1 rows
// yields trailing singular values at roundoff level.
func GenerateRightVectors(at *mat.Dense, r1 int) (v *mat.Dense, s []float64) {
	n := at.Rows()
	if r1 > n {
		r1 = n
	}
	if r1 < 1 {
		panic(fmt.Sprintf("apmos: r1 = %d < 1", r1))
	}
	// The Gram matrix is symmetric PSD, so its SVD coincides with its
	// eigendecomposition and we can reuse the fast Golub–Reinsch path. A
	// block far outside the unit range is first scaled by an exact power
	// of two, so its Gram neither overflows nor underflows; V is unchanged
	// by the scaling.
	if e := linalg.Equilibration(at); e != 0 {
		v, s = GenerateRightVectors(mat.Scale(math.Ldexp(1, e), at), r1)
		for i := range s {
			s[i] = math.Ldexp(s[i], -e)
		}
		return v, s
	}
	gram := mat.MulTransB(at, at)
	vg, s2, _ := linalg.SVD(gram)
	s = make([]float64, r1)
	for i := 0; i < r1; i++ {
		if s2[i] > 0 {
			s[i] = math.Sqrt(s2[i])
		}
	}
	return vg.SliceCols(0, r1), s
}

// Decompose runs Algorithm 2 over the communicator: at is this rank's row
// block A_i of the global snapshot matrix held transposed, as the N×M_i
// matrix Aᵢᵀ whose row j is snapshot j's M_i values. It returns, in fresh
// storage, this rank's slice of the k ≤ K global modes mode-major — the
// k×M_i matrix whose row j is mode j's M_i entries — and the k global
// singular values; both are valid on every rank. A failed collective, a
// peer block of another snapshot count and a failed randomized root SVD
// are errors, on which the caller aborts the world, so peers blocked in a
// collective return too.
func Decompose(c *mpi.Comm, at *mat.Dense, opts Options) (rows *mat.Dense, s []float64, err error) {
	n, mi := at.Dims()
	opts = opts.withDefaults(n)

	// Step 1–2: local right vectors, truncated to r1 columns.
	vlocal, slocal := GenerateRightVectors(at, opts.R1)

	// Step 3: W_i = Ṽᵢ·diag(Σ̃ᵢ), gathered at rank 0 (paper Listing 3:
	// wlocal = vlocal · diag(slocal)ᵀ; comm.gather(wlocal, root=0)).
	wlocal := mat.MulDiag(vlocal, slocal)
	gathered := []*mat.Dense{wlocal}
	for len(gathered) < c.Size() {
		gathered = append(gathered, new(mat.Dense))
	}
	if err := c.GatherMatrixViews(0, wlocal, gathered); err != nil {
		return nil, nil, err
	}

	// Step 4–5: SVD of W at the root, truncated to r2 columns.
	x := new(mat.Dense)
	var lam []float64
	if c.Rank() == 0 {
		for r, w := range gathered {
			if w.Rows() != n {
				return nil, nil, fmt.Errorf("apmos: rank %d sent a %dx%d block, want %d rows",
					r, w.Rows(), w.Cols(), n)
			}
		}
		wglobal := mat.HStack(gathered...)
		c.ReleaseViews(0, gathered)
		if opts.LowRank {
			x, lam, err = rla.LowRankSVD(wglobal, opts.R2, opts.RLA)
			if err != nil {
				return nil, nil, fmt.Errorf("apmos: low-rank SVD: %w", err)
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
	if err := c.BcastMatrixInto(0, x); err != nil {
		return nil, nil, err
	}
	if lam, err = c.BcastFloatsInto(0, lam); err != nil {
		return nil, nil, err
	}

	// Step 7: local slice of each global mode, Ũʲᵢ = (1/Λ_j)·A_i·X_j,
	// formed mode-major as Ũᵀ = diag(1/Λ)·X_kᵀ·Aᵢᵀ one column slab at a
	// time. A slab of the product reads only the same columns of Aᵢᵀ, so it
	// is formed in a cache-resident k×slab stage by the broadcast-axpy
	// kernel (X_kᵀ read where it lies in X) and written out scaled.
	k := min(opts.K, len(lam))
	inv := make([]float64, k)
	for j := range inv {
		if lam[j] > 0 {
			inv[j] = 1 / lam[j]
		}
	}
	rows = mat.New(k, mi)
	const slab = 128
	stage := make([]float64, k*min(slab, mi))
	src, out := at.RawData(), rows.RawData()
	for c0 := 0; c0 < mi; c0 += slab {
		w := min(slab, mi-c0)
		st := stage[:k*w]
		clear(st)
		mat.AxpyBlock(st, w, x.RawData(), 1, x.Cols(), src[c0:], mi, k, w, n)
		for j, sj := range inv {
			o := out[j*mi+c0 : j*mi+c0+w]
			for i, v := range st[j*w : (j+1)*w] {
				o[i] = v * sj
			}
		}
	}
	return rows, lam[:k], nil
}

// DecomposeSerial is the single-process reference: the exact truncated SVD
// of the full matrix, returning the leading K modes and singular values. It
// is what Decompose converges to as r1 → N. Unlike Decompose it returns
// the modes as the M×K matrix U.
func DecomposeSerial(a *mat.Dense, k int) (modes *mat.Dense, s []float64) {
	u, sv, _ := linalg.SVDTruncated(a, k)
	return u, sv
}

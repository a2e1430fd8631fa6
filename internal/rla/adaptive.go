package rla

import (
	"fmt"
	"math"
	"math/rand"

	"goparsvd/internal/linalg"
	"goparsvd/internal/mat"
)

// This file implements the adaptive randomized range finder (Halko,
// Martinsson & Tropp, Alg. 4.2 in block form): instead of fixing the
// sketch rank a priori, the basis grows block by block until a posterior
// probabilistic error estimate certifies ‖(I − QQᵀ)A‖ ≤ tol. The paper
// fixes K everywhere; this is the natural extension for users who know
// an accuracy target rather than a rank.

// errProbes is the number of Gaussian probe vectors behind the posterior
// estimate; the bound ‖(I−QQᵀ)A‖₂ ≤ 10·sqrt(2/π)·maxᵢ‖(I−QQᵀ)Aωᵢ‖ holds
// with probability 1 − 10^-errProbes.
const errProbes = 10

// AdaptiveRangeFinder grows an orthonormal basis Q for the range of A in
// blocks of the given width until the estimated spectral-norm residual
// ‖A − QQᵀA‖₂ falls below tol, or the basis saturates at min(m, n)
// columns. The final basis width is data-dependent: rapidly decaying
// spectra stop early. Invalid tolerance or block width is reported as an
// error, never a panic: both reach this package straight from public
// facade options.
func AdaptiveRangeFinder(a *mat.Dense, tol float64, block int, opts Options) (*mat.Dense, error) {
	opts = opts.withDefaults()
	if tol <= 0 {
		return nil, fmt.Errorf("rla: AdaptiveRangeFinder tol = %g <= 0", tol)
	}
	if block < 1 {
		return nil, fmt.Errorf("rla: AdaptiveRangeFinder block = %d < 1", block)
	}
	m, n := a.Dims()
	limit := min(m, n)
	rng := rand.New(rand.NewSource(opts.Seed))

	var q *mat.Dense // m×k, grows by up to `block` columns per round
	for {
		// Draw a fresh sketch block and project out the accumulated basis
		// (twice, for orthogonality against roundoff).
		width := block
		if q != nil && q.Cols()+width > limit {
			width = limit - q.Cols()
		}
		if width <= 0 {
			return q, nil
		}
		y := mat.Mul(a, Gaussian(n, width, rng))
		for pass := 0; pass < 2; pass++ {
			if q != nil {
				y = mat.Sub(y, mat.Mul(q, mat.MulTransA(q, y)))
			}
		}
		qb, rb := linalg.QR(y)
		// Discard directions that were already captured: their R diagonal
		// collapses to ~0 and keeping them would poison orthogonality.
		keep := 0
		for j := 0; j < rb.Rows() && j < rb.Cols(); j++ {
			if math.Abs(rb.At(j, j)) > 1e-12 {
				keep = j + 1
			}
		}
		if keep > 0 {
			qb = qb.SliceCols(0, keep)
			if q == nil {
				q = qb
			} else {
				q = mat.HStack(q, qb)
			}
		}
		if q == nil {
			// A is (numerically) zero: an empty basis satisfies any tol.
			return mat.New(m, 0), nil
		}
		if q.Cols() >= limit {
			return q, nil
		}
		if estimateResidual(a, q, rng) <= tol {
			return q, nil
		}
		if keep == 0 {
			// No new directions found but the estimate is still above
			// tol: the residual estimate is dominated by noise at machine
			// precision; stop rather than loop forever.
			return q, nil
		}
	}
}

// estimateResidual returns the probabilistic upper bound
// 10·sqrt(2/π)·maxᵢ ‖(I − QQᵀ)·A·ωᵢ‖₂ over errProbes Gaussian probes.
func estimateResidual(a, q *mat.Dense, rng *rand.Rand) float64 {
	n := a.Cols()
	probes := mat.Mul(a, Gaussian(n, errProbes, rng))
	resid := mat.Sub(probes, mat.Mul(q, mat.MulTransA(q, probes)))
	worst := 0.0
	for j := 0; j < errProbes; j++ {
		if v := resid.ColNorm(j); v > worst {
			worst = v
		}
	}
	return 10 * math.Sqrt(2/math.Pi) * worst
}

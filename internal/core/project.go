package core

import (
	"fmt"

	"goparsvd/internal/mat"
)

// This file implements the projection utilities the paper's §2 motivates:
// once the truncated modes are available, snapshots can be compressed to
// K coefficients each (data compression, reduced-order modeling) and
// reconstructed from them. Both engines expose the same pair of methods;
// the parallel versions operate on row blocks and need one Allreduce per
// projection.

// Coefficients projects snapshots onto the current modes: the returned
// K×B matrix holds, per column, the modal coefficients Uᵀ·a of the
// corresponding snapshot column. For POD/ROM users these are the "time
// coefficients"; for compression they are the compressed representation.
//
// The serial engine reads its mode-major Uᵀ directly: no M×K copy.
func (s *Serial) Coefficients(a *mat.Dense) *mat.Dense {
	rows := s.ModeRows()
	if a.Rows() != rows.Cols() {
		panic(fmt.Sprintf("core: Coefficients rows %d, want %d", a.Rows(), rows.Cols()))
	}
	return mat.Mul(rows, a)
}

// Reconstruct maps K×B coefficients back to snapshot space: U·c. Together
// with Coefficients it is the rank-K compression round trip; the
// reconstruction error is governed by the discarded σ_{K+1:} tail
// (Eckart–Young).
func (s *Serial) Reconstruct(coeffs *mat.Dense) *mat.Dense {
	rows := s.ModeRows()
	if coeffs.Rows() != rows.Rows() {
		panic(fmt.Sprintf("core: Reconstruct coefficient rows %d, want %d",
			coeffs.Rows(), rows.Rows()))
	}
	return mat.MulTransA(rows, coeffs)
}

// Coefficients projects this rank's snapshot block onto the distributed
// modes. Each rank contributes U_iᵀ·a_i and the contributions are summed
// across ranks, so every rank returns the same global K×B coefficient
// matrix — no rank ever needs the full snapshot.
func (p *Parallel) Coefficients(a *mat.Dense) *mat.Dense {
	modes := p.Modes()
	if a.Rows() != modes.Rows() {
		panic(fmt.Sprintf("core: Coefficients rows %d, want %d", a.Rows(), modes.Rows()))
	}
	local := mat.MulTransA(modes, a) // K×B partial sum
	k, b := local.Dims()
	global := p.comm.AllreduceSum(local.RawData())
	return mat.NewFromData(k, b, global)
}

// Reconstruct maps global coefficients back to this rank's rows of
// snapshot space: U_i·c. Stacking the per-rank results reproduces the
// serial reconstruction.
func (p *Parallel) Reconstruct(coeffs *mat.Dense) *mat.Dense {
	modes := p.Modes()
	if coeffs.Rows() != modes.Cols() {
		panic(fmt.Sprintf("core: Reconstruct coefficient rows %d, want %d",
			coeffs.Rows(), modes.Cols()))
	}
	return mat.Mul(modes, coeffs)
}

// CompressionRatio reports the storage ratio of rank-K compression for an
// M×N snapshot matrix: original M·N values versus M·K (modes) + K (values)
// + K·N (coefficients).
func CompressionRatio(m, n, k int) float64 {
	if m < 1 || n < 1 || k < 1 {
		panic(fmt.Sprintf("core: CompressionRatio with m=%d n=%d k=%d", m, n, k))
	}
	original := float64(m) * float64(n)
	compressed := float64(m)*float64(k) + float64(k) + float64(k)*float64(n)
	return original / compressed
}

package core

import (
	"fmt"

	"goparsvd/internal/mat"
	"goparsvd/internal/stream"
)

// This file implements the projection utilities the paper's §2 motivates:
// once the truncated modes are available, snapshots can be compressed to
// K coefficients each (data compression, reduced-order modeling) and
// reconstructed from them.

// Coefficients projects snapshots onto the engine's current modes: the
// returned K×B matrix holds, per column, the modal coefficients Uᵀ·a of
// the corresponding snapshot column. For POD/ROM users these are the
// "time coefficients"; for compression they are the compressed
// representation.
//
// It reads the engine's mode-major Uᵀ directly: no M×K copy.
func Coefficients(s *stream.SVD, a *mat.Dense) *mat.Dense {
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
func Reconstruct(s *stream.SVD, coeffs *mat.Dense) *mat.Dense {
	rows := s.ModeRows()
	if coeffs.Rows() != rows.Rows() {
		panic(fmt.Sprintf("core: Reconstruct coefficient rows %d, want %d",
			coeffs.Rows(), rows.Rows()))
	}
	return mat.MulTransA(rows, coeffs)
}

package core

import (
	"fmt"

	"goparsvd/internal/mat"
)

// This file implements the projection utilities the paper's §2 motivates:
// once the truncated modes are available, snapshots can be compressed to
// K coefficients each (data compression, reduced-order modeling) and
// reconstructed from them.

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

package parsvd

import (
	"errors"
	"fmt"

	"goparsvd/internal/mat"
)

// Projection utilities (paper §2): once modes are available, snapshots
// compress to K coefficients each and reconstruct from them.

// Coefficients projects snapshots onto the current modes: the returned
// K×B matrix holds, per column, the modal coefficients Uᵀ·a of the
// corresponding snapshot column. It needs the modes in this process, so
// the Distributed backend, whose modes stay in its workers, and WithShards,
// whose modes are a merge of its shards', refuse it.
func (s *SVD) Coefficients(a *Matrix) (*Matrix, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	u, err := s.modeRows("Coefficients")
	if err != nil {
		return nil, err
	}
	if a == nil || a.Rows() != s.rows {
		return nil, fmt.Errorf("parsvd: Coefficients needs %d-row snapshots", s.rows)
	}
	return mat.Mul(u, a), nil
}

// Reconstruct maps K×B coefficients back to snapshot space (U·c), the
// other half of the rank-K compression round trip. Distributed and
// WithShards refuse it, as they refuse Coefficients.
func (s *SVD) Reconstruct(coeffs *Matrix) (*Matrix, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	u, err := s.modeRows("Reconstruct")
	if err != nil {
		return nil, err
	}
	if k := u.Rows(); coeffs == nil || coeffs.Rows() != k {
		return nil, fmt.Errorf("parsvd: Reconstruct needs %d-row coefficients", k)
	}
	return mat.MulTransA(u, coeffs), nil
}

// modeRows is the in-process engine's K×M mode-major modes, for op.
// Called with s.mu held.
func (s *SVD) modeRows(op string) (*mat.Dense, error) {
	if err := s.usable(op); err != nil {
		return nil, err
	}
	eng, ok := s.eng.(*serialEngine)
	if !ok {
		return nil, errors.New("parsvd: projection utilities need the modes in this process: not on the Distributed backend or with WithShards")
	}
	if s.rows == 0 {
		return nil, errNoData
	}
	return eng.svd.ModeRows(), nil
}

package parsvd

import "errors"

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
	eng, err := s.serialEngine()
	if err != nil {
		return nil, err
	}
	return eng.coefficients(a)
}

// Reconstruct maps K×B coefficients back to snapshot space (U·c), the
// other half of the rank-K compression round trip. Distributed and
// WithShards refuse it, as they refuse Coefficients.
func (s *SVD) Reconstruct(coeffs *Matrix) (*Matrix, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	eng, err := s.serialEngine()
	if err != nil {
		return nil, err
	}
	return eng.reconstruct(coeffs)
}

func (s *SVD) serialEngine() (*serialEngine, error) {
	if s.closed {
		return nil, errors.New("parsvd: SVD is closed")
	}
	eng, ok := s.eng.(*serialEngine)
	if !ok {
		return nil, errors.New("parsvd: projection utilities need the modes in this process: not on the Distributed backend or with WithShards")
	}
	return eng, nil
}

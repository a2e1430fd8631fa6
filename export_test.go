package parsvd

// Test-only seams. This file compiles into the parsvd test binary only,
// so the public surface stays exactly what parsvd.go declares.

import "time"

// DistWorkerPIDs exposes the Distributed backend's worker process IDs in
// rank order (fault-injection tests kill individual ranks). It returns
// nil before the first batch has spawned the fleet, or for other
// backends.
func DistWorkerPIDs(s *SVD) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.eng.(*distEngine); ok && d.sess != nil {
		return d.sess.WorkerPIDs()
	}
	return nil
}

// DistSetDeadline drives the Distributed backend's deadline seam
// directly (Fit normally owns it), so tests can pin the pre-wire
// refusal behavior deterministically.
func DistSetDeadline(s *SVD, t time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.eng.(*distEngine); ok {
		d.setDeadline(t)
	}
}

// DistSessionOps reports how many lockstep exchanges the Distributed
// backend's launcher has run with its fleet: 0 before the first batch has
// spawned it, or for other backends.
func DistSessionOps(s *SVD) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.eng.(*distEngine); ok && d.sess != nil {
		return d.sess.Stats().Ops
	}
	return 0
}

// ModeStorage returns the address of the first mode value of an
// in-process engine (Serial or Parallel): the first value of the buffer
// the engine factors in, so tests can see which buffer a bring-up took.
// It returns nil for other engines or before the first batch.
func ModeStorage(s *SVD) *float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.eng.(*serialEngine); ok && e.svd.Initialized() {
		return &e.svd.ModeRows().RawData()[0]
	}
	return nil
}

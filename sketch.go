package parsvd

// Sketched push (Li–Kluger–Tygert, arXiv 1612.08709; RSVDPACK, arXiv
// 1502.05366): the sketch, not the data, crosses the wire. An M×B batch A
// is compressed into the factor pair (Q, S) with A ≈ Q·S — Q an M×L
// orthonormal range basis from internal/rla, S = QᵀA the L×B projection —
// and only L·(M+B) floats travel instead of M·B. Engines that understand
// the pair (the Distributed backend's worker fleet) reconstruct on their
// side of the wire; the in-process backends reconstruct here and push the
// product, which still pays off when the sketch itself was produced
// remotely (the serving layer's sketched ingest).

import (
	"errors"
	"fmt"

	"goparsvd/internal/mat"
	"goparsvd/internal/rla"
)

// sketchReceiver is the engine extension of the Distributed backend,
// whole or sharded, which ships the compressed factor pair instead of
// reconstructed rows. The in-process backends get the facade-side
// reconstruction through plain push.
type sketchReceiver interface {
	pushSketch(q, s *mat.Dense) error
}

// Sketch compresses an M×B snapshot batch into the factor pair (q, s)
// with batch ≈ q·s — the same compression WithSketchedPush applies before
// every push, exposed so a producer can sketch on its own machine and
// ship only the pair (PushSketch, or the serving API's sketched push).
// cfg follows SketchConfig semantics: Tol > 0 grows the rank adaptively
// until the estimated residual falls below Tol·‖batch‖_F, Tol == 0 uses a
// fixed width of MaxRank. An optional RLA argument tunes the sketch.
// A nil pair with a nil error means the sketch would not compress this
// batch (L·(M+B) ≥ M·B): push it raw instead.
func Sketch(batch *Matrix, cfg SketchConfig, opts ...RLA) (q, s *Matrix, err error) {
	if len(opts) > 1 {
		return nil, nil, fmt.Errorf("parsvd: Sketch takes at most one RLA, got %d", len(opts))
	}
	var ro RLA
	if len(opts) == 1 {
		if err := opts[0].Validate(); err != nil {
			return nil, nil, fmt.Errorf("parsvd: Sketch: %w", err)
		}
		ro = opts[0]
	}
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	if err := checkBatch(batch, 0); err != nil {
		return nil, nil, err
	}
	return sketchBatch(batch, cfg, ro)
}

// sketchBatch runs the validated sketch: cfg has passed
// SketchConfig.validate and batch has passed checkBatch.
func sketchBatch(batch *Matrix, cfg SketchConfig, ro RLA) (*Matrix, *Matrix, error) {
	maxRank := cfg.MaxRank
	if maxRank == 0 {
		// Adaptive with no explicit cap: saturate only at the batch shape.
		maxRank = batch.Rows()
		if c := batch.Cols(); c < maxRank {
			maxRank = c
		}
	}
	block := cfg.Block
	if block == 0 {
		block = 8
	}
	tol := cfg.Tol
	if tol > 0 {
		// The configured tolerance is relative to the batch; rla wants the
		// absolute spectral bound.
		tol *= batch.FroNorm()
		if tol == 0 {
			// A zero batch: any one-column basis nominally satisfies tol=0,
			// but rla requires tol > 0; ship it raw (it is all zeros).
			return nil, nil, nil
		}
	}
	q, s, err := rla.SketchFactors(batch, tol, block, maxRank, ro)
	if err != nil {
		return nil, nil, fmt.Errorf("parsvd: sketch: %w", err)
	}
	return q, s, nil
}

// checkFactorPair validates a sketched pair against the rows seen so far,
// mirroring checkBatch for raw pushes: nothing on the public path panics.
func checkFactorPair(q, s *Matrix, rows int) error {
	if q == nil || q.IsEmpty() || s == nil || s.IsEmpty() {
		return errors.New("parsvd: empty sketch factor pair")
	}
	if q.Cols() != s.Rows() {
		return fmt.Errorf("parsvd: sketch factor pair has mismatched inner dimension: Q is %dx%d, S is %dx%d",
			q.Rows(), q.Cols(), s.Rows(), s.Cols())
	}
	if rows != 0 && q.Rows() != rows {
		return fmt.Errorf("parsvd: sketch factor Q has %d rows, want %d", q.Rows(), rows)
	}
	for _, m := range []*Matrix{q, s} {
		if i := mat.FirstNonFinite(m.RawData()); i >= 0 {
			return fmt.Errorf("parsvd: sketch factor pair contains a non-finite value (%g)", m.RawData()[i])
		}
	}
	return nil
}

// PushSketch ingests one snapshot batch in compressed factor form: q
// (M×L) times s (L×B) stands in for the M×B batch it was sketched from.
// Pairs come from Sketch on a producer machine, from the serving layer's
// sketched ingest, or from a WAL replay of a sketched push. PushSketch
// works on any SVD regardless of WithSketchedPush: the Distributed
// backend ships the pair over the wire and reconstructs rank-local row
// blocks on the workers; the in-process backends reconstruct q·s here
// and push the product. Replaying the same pair reproduces the same
// update bit-exactly — reconstruction is deterministic.
func (s *SVD) PushSketch(q, sk *Matrix) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable("PushSketch"); err != nil {
		return err
	}
	return s.pushSketchLocked(q, sk)
}

// pushSketchLocked checks a factor pair and forwards it to the engine —
// compressed to the Distributed backend, which understands the form,
// reconstructed for the others — and maintains the ingest and wire
// counters. Called with s.mu held.
func (s *SVD) pushSketchLocked(q, sk *Matrix) error {
	if err := checkFactorPair(q, sk, s.rows); err != nil {
		return err
	}
	if err := s.checkSplit(q.Rows()); err != nil {
		return err
	}
	m, l, bcols := q.Rows(), q.Cols(), sk.Cols()
	// One in-process copy of the pair stands in for the raw batch.
	wire := 8 * int64(l*(m+bcols))
	if s.cfg.backend == Distributed {
		// The scatter ships each rank its row block of Q (M·L floats in
		// total) and replicates S to every rank.
		wire = 8 * int64(m*l+l*bcols*s.cfg.ranks)
		if err := s.eng.(sketchReceiver).pushSketch(q, sk); err != nil {
			return s.retire(err)
		}
	} else {
		// Finite factors can still overflow in their product.
		a := Mul(q, sk)
		if err := checkBatch(a, m); err != nil {
			return err
		}
		if err := s.eng.push(a); err != nil {
			return s.retire(err)
		}
	}
	s.sketchedPushes++
	s.count(m, bcols, wire)
	return nil
}

package parsvd

// Sketched push (Li–Kluger–Tygert, arXiv 1612.08709; RSVDPACK, arXiv
// 1502.05366): the sketch, not the data, crosses the wire. An M×B batch A
// is compressed into the factor pair (Q, S) with A ≈ Q·S — Q an M×L
// orthonormal range basis from internal/rla, S = QᵀA the L×B projection —
// and only L·(M+B) floats travel instead of M·B. SVD rebuilds the batch
// Q·S once, block by block over the ranks' row split, and checks it; the
// in-process engines push the rebuild, and the Distributed backend ships
// the pair, whose workers rebuild their own blocks to the same bits. That
// still pays off in-process when the sketch itself was produced remotely
// (the serving layer's sketched ingest).

import (
	"errors"
	"fmt"

	"goparsvd/internal/grid"
	"goparsvd/internal/mat"
	"goparsvd/internal/rla"
)

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
// works on any SVD regardless of WithSketchedPush. The batch q·s is
// rebuilt and checked here on every backend, one rank's row block at a
// time; the in-process backends push it, and the Distributed backend
// ships the pair over the wire for each worker to rebuild its own block,
// to the same bits. Replaying the same pair reproduces the same update
// bit-exactly — reconstruction is deterministic.
func (s *SVD) PushSketch(q, sk *Matrix) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable("PushSketch"); err != nil {
		return err
	}
	return s.pushSketchLocked(q, sk)
}

// pushSketchLocked checks a factor pair and the batch it rebuilds, hands
// both to the engine and maintains the ingest and wire counters. Called
// with s.mu held.
func (s *SVD) pushSketchLocked(q, sk *Matrix) error {
	if err := checkFactorPair(q, sk, s.rows); err != nil {
		return err
	}
	if err := s.checkSplit(q.Rows()); err != nil {
		return err
	}
	// Finite factors can still overflow in their product.
	a := s.rebuilder.rebuild(q, sk, s.cfg.ranks)
	if err := checkBatch(a, s.rows); err != nil {
		return err
	}
	if err := s.eng.pushSketch(q, sk, a); err != nil {
		return s.retire(err)
	}
	m, l, bcols := q.Rows(), q.Cols(), sk.Cols()
	// One copy of the pair stands in for the raw batch; the Distributed
	// scatter ships each rank its row block of Q (M·L floats in total)
	// and replicates S to every rank.
	copies := 1
	if s.cfg.backend == Distributed {
		copies = s.cfg.ranks
	}
	s.sketchedPushes++
	s.count(m, bcols, 8*int64(m*l+l*bcols*copies))
	return nil
}

// rebuilder forms the batch a factor pair stands for in storage it
// keeps, so a steady PushSketch allocates nothing.
type rebuilder struct {
	parts  []grid.Range
	batch  *mat.Dense
	qr, ar mat.Dense // views of one block's rows of Q and of the batch
}

// rebuild forms q·sk one row block of grid.Partition(M, ranks) at a
// time: the split a Distributed fleet scatters and the Parallel engine
// factors. Each block is the product a worker forms from its rows of Q;
// the whole product need not round like its blocks (mat picks a
// product's kernel from its shape), so only the blockwise rebuild gives
// Parallel a fleet's bits. Serial has one block. The batch is valid until
// the next rebuild.
func (r *rebuilder) rebuild(q, sk *Matrix, ranks int) *Matrix {
	m, b := q.Rows(), sk.Cols()
	if r.batch == nil || r.batch.Rows() != m || r.batch.Cols() != b || len(r.parts) != ranks {
		r.batch, r.parts = mat.New(m, b), grid.Partition(m, ranks)
	}
	for _, p := range r.parts {
		q.ViewRows(p.Start, p.End, &r.qr)
		r.batch.ViewRows(p.Start, p.End, &r.ar)
		mat.MulInto(&r.ar, &r.qr, sk)
	}
	return r.batch
}

package parsvd

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"

	"goparsvd/internal/core"
	"goparsvd/internal/merge"
	"goparsvd/internal/stream"
)

// Typed merge-validation errors. Both are returned before any state
// changes: a merge that fails validation leaves the target model
// untouched.
var (
	// ErrMergeIncompatible marks shard states that cannot describe the
	// same logical decomposition: differing K, forget factor, snapshot
	// row count, or provenance marks from different partitionings.
	ErrMergeIncompatible = errors.New("parsvd: checkpoints are not mergeable")
	// ErrShardOverlap marks an attempt to merge the same shard of the
	// same partitioning twice; the merge operator requires disjoint
	// snapshot subsets.
	ErrShardOverlap = errors.New("parsvd: shard already merged into this model")
)

// Merge absorbs a shard-local fit — a checkpoint written by Save — into
// this model: the two factorizations combine through the pairwise
// Iwen–Ong merge operator, truncated back to this SVD's K. The merged
// model always continues on the Serial backend (Backend reports the
// change); a Parallel or Distributed engine is shut down once the merge
// has been computed. Merging into an SVD that has seen no data adopts
// the checkpoint outright, like Load, after the same compatibility
// checks.
//
// The checkpoint is fully parsed and validated (ErrBadCheckpoint,
// ErrMergeIncompatible, ErrShardOverlap) before the model is touched: a
// failed Merge leaves the target exactly as it was. The accumulated
// truncation error of all merges is available from MergeBound.
func (s *SVD) Merge(r io.Reader) error {
	if r == nil {
		return errors.New("parsvd: Merge with nil reader")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable("Merge"); err != nil {
		return err
	}
	st, err := core.ReadState(r)
	if err != nil {
		return fmt.Errorf("parsvd: %w", err)
	}
	if err := checkMergeable("checkpoint", st, "model", s.cfg.opts.K, s.cfg.opts.FF, s.rows); err != nil {
		return err
	}
	if err := s.checkProvenance(st.Shard); err != nil {
		return err
	}

	// A model that has seen no data adopts the checkpoint. Otherwise the
	// merge is the engine's update at forget factor 1 with the
	// checkpoint's scaled modes as the batch: restore the current
	// factorization, then absorb the checkpoint. Either way the restored
	// engine's iteration counter continues the facade's update count, so
	// the updates == iterations+1 invariant that keeps WAL sequence
	// numbers contiguous across checkpoint/restore survives the merge.
	base := st
	if s.rows != 0 {
		if base, err = s.eng.state(); err != nil {
			return s.retire(err)
		}
		base.Snapshots += st.Snapshots
	}
	base.Opts, base.Iterations = s.cfg.opts, int(s.updates)
	eng, err := restoreSerialEngine(base)
	if err != nil {
		return fmt.Errorf("parsvd: restoring merged state: %w", err)
	}
	bound := s.mergeBoundLocked()
	if s.rows != 0 {
		tail, err := eng.svd.Absorb(st.Modes, st.Singular)
		if err != nil {
			return fmt.Errorf("parsvd: merging checkpoint: %w", err)
		}
		bound += math.Sqrt(tail)
	}

	// Point of no return: everything validated, swap the engine. Closing
	// hands the old engine's buffer on, so base, read from it in place,
	// must be used up by now: the restore above copied it.
	if err := s.eng.close(); err != nil {
		return s.retire(fmt.Errorf("%w: closing pre-merge engine: %w", ErrEngineFailed, err))
	}
	s.eng = eng
	s.cfg.backend = Serial
	s.cfg.ranks = 1
	s.rows = st.Modes.Rows()
	s.snapshots += st.Snapshots
	s.updates++
	s.mergeBound = bound
	s.recordProvenance(st.Shard)
	return nil
}

// recordProvenance notes an absorbed shard mark and retires the model's
// own WithShard mark into the absorbed set: after a merge the model is
// a union of shards, not a single shard, so later saves must not stamp
// it as one (while overlap checks keep refusing all constituents).
func (s *SVD) recordProvenance(incoming core.ShardID) {
	if !s.cfg.shard.IsZero() {
		s.absorbed = append(s.absorbed, s.cfg.shard)
		s.cfg.shard = core.ShardID{}
	}
	if !incoming.IsZero() {
		s.absorbed = append(s.absorbed, incoming)
	}
}

// checkProvenance refuses a shard mark that cannot be disjoint from
// what this model already holds. A zero mark (whole-stream checkpoint)
// always passes — disjointness is then the caller's responsibility.
func (s *SVD) checkProvenance(id core.ShardID) error {
	held := s.absorbed
	if !s.cfg.shard.IsZero() {
		held = append(held[:len(held):len(held)], s.cfg.shard)
	}
	switch j := clash(held, id); {
	case j < 0:
		return nil
	case held[j] == id:
		return fmt.Errorf("%w: shard %d of %d", ErrShardOverlap, id.Index, id.Count)
	default:
		return fmt.Errorf("%w: shard %d of %d cannot be disjoint from already-held shard %d of %d (different partitionings)",
			ErrMergeIncompatible, id.Index, id.Count, held[j].Index, held[j].Count)
	}
}

// clash is the one provenance rule of every merge: it returns the position
// in held of the first mark id cannot be disjoint from — the same shard, or
// a shard of a different partitioning — or -1. A zero id clashes with
// nothing.
func clash(held []core.ShardID, id core.ShardID) int {
	if id.IsZero() {
		return -1
	}
	for j, h := range held {
		if h == id || h.Count != id.Count {
			return j
		}
	}
	return -1
}

// checkMergeable refuses, as ErrMergeIncompatible, a state a that cannot
// merge with one of K k, forget factor ff and rows snapshot rows (0 for a
// model that has seen no data, which matches any). The names label the
// two in the message.
func checkMergeable(aName string, a core.State, bName string, k int, ff float64, rows int) error {
	switch {
	case a.Opts.K != k:
		return fmt.Errorf("%w: %s has K = %d, %s has K = %d", ErrMergeIncompatible, aName, a.Opts.K, bName, k)
	case a.Opts.FF != ff:
		return fmt.Errorf("%w: %s has forget factor %g, %s has %g", ErrMergeIncompatible, aName, a.Opts.FF, bName, ff)
	case rows != 0 && a.Modes.Rows() != rows:
		return fmt.Errorf("%w: %s has %d snapshot rows, %s has %d", ErrMergeIncompatible, aName, a.Modes.Rows(), bName, rows)
	}
	return nil
}

// MergeBound reports the accumulated Frobenius-norm truncation bound of
// every merge applied to this model. By Weyl's inequality each singular
// value of the merged model is within this bound of the corresponding
// value of the exact factorization of the union stream. Zero for a
// model never merged. On a WithShards model it is the bound of the shard
// reduction as of the latest Result, Save or Fit, which each recompute
// the reduction (zero before the first).
func (s *SVD) MergeBound() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mergeBoundLocked()
}

// mergeBoundLocked is MergeBound with s.mu held. A WithShards engine
// keeps its own reduction's bound; Merge swaps any engine for a serial
// one, so a model has either that bound or s.mergeBound, never both.
func (s *SVD) mergeBoundLocked() float64 {
	if e, ok := s.eng.(*shardedEngine); ok {
		return e.bound
	}
	return s.mergeBound
}

// MergeCheckpoints reduces shard-local checkpoint files into one model:
// every file is parsed and the whole set validated (same K, same forget
// factor, same row count, pairwise-disjoint shard provenance) before
// any merge runs, then the states combine up a balanced pairwise merge
// tree. The result is an ordinary serial-backend SVD, ready to stream
// further batches, save, or serve; its MergeBound carries the
// accumulated truncation error.
func MergeCheckpoints(paths ...string) (*SVD, error) {
	if len(paths) == 0 {
		return nil, errors.New("parsvd: MergeCheckpoints with no checkpoints")
	}
	readers := make([]io.Reader, len(paths))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, fmt.Errorf("parsvd: %w", err)
		}
		defer f.Close()
		readers[i] = f
	}
	return mergeStates(readers, paths)
}

// MergeReaders is MergeCheckpoints for checkpoints that are not files:
// each reader yields one serialized checkpoint (Save / WriteCheckpoint
// bytes), letting a coordinator reduce shard states fetched over the
// wire without spilling them to temp files. Validation and reduction are
// identical to MergeCheckpoints; errors label operands "checkpoint i"
// (reader order) instead of by path.
func MergeReaders(readers ...io.Reader) (*SVD, error) {
	if len(readers) == 0 {
		return nil, errors.New("parsvd: MergeReaders with no checkpoints")
	}
	labels := make([]string, len(readers))
	for i, r := range readers {
		labels[i] = fmt.Sprintf("checkpoint %d", i)
		if r == nil {
			return nil, fmt.Errorf("parsvd: MergeReaders: %s is a nil reader", labels[i])
		}
	}
	return mergeStates(readers, labels)
}

// mergeStates parses every checkpoint and validates the whole set
// (compatibility and pairwise-disjoint provenance — before any merge work
// runs), reduces it up a balanced pairwise merge tree and wraps the root
// as a serial SVD. labels name the operands in error messages (file paths
// for MergeCheckpoints, reader indices for MergeReaders).
func mergeStates(readers []io.Reader, labels []string) (*SVD, error) {
	states := make([]core.State, len(readers))
	for i, r := range readers {
		st, err := core.ReadState(r)
		if err != nil {
			return nil, fmt.Errorf("parsvd: %s: %w", labels[i], err)
		}
		states[i] = st
	}
	ref := states[0]
	for i, st := range states[1:] {
		if err := checkMergeable(labels[i+1], st, labels[0], ref.Opts.K, ref.Opts.FF, ref.Modes.Rows()); err != nil {
			return nil, err
		}
	}
	var absorbed []core.ShardID
	var absorbedAt []int // state index of each absorbed mark, for error labels
	for i, st := range states {
		switch j := clash(absorbed, st.Shard); {
		case j >= 0 && absorbed[j] == st.Shard:
			return nil, fmt.Errorf("%w: %s and %s both hold shard %d of %d",
				ErrShardOverlap, labels[absorbedAt[j]], labels[i], st.Shard.Index, st.Shard.Count)
		case j >= 0:
			return nil, fmt.Errorf("%w: %s is shard %d of %d but %s is shard %d of %d (different partitionings)",
				ErrMergeIncompatible, labels[i], st.Shard.Index, st.Shard.Count,
				labels[absorbedAt[j]], absorbed[j].Index, absorbed[j].Count)
		case !st.Shard.IsZero():
			absorbed = append(absorbed, st.Shard)
			absorbedAt = append(absorbedAt, i)
		}
	}

	parts := make([]*merge.Partial, len(states))
	for i, st := range states {
		parts[i] = &merge.Partial{
			U:          st.Modes,
			S:          st.Singular,
			Iterations: st.Iterations,
			Snapshots:  st.Snapshots,
		}
	}
	root, err := merge.Tree(parts, merge.TreeOptions{
		K:       ref.Opts.K,
		Workers: runtime.GOMAXPROCS(0),
	})
	if err != nil {
		return nil, fmt.Errorf("parsvd: %w", err)
	}
	s, err := restore(core.State{
		Opts:       ref.Opts,
		Modes:      root.U,
		Singular:   root.S,
		Iterations: root.Iterations,
		Snapshots:  root.Snapshots,
	})
	if err != nil {
		return nil, fmt.Errorf("parsvd: restoring merged state: %w", err)
	}
	s.absorbed = absorbed
	s.mergeBound = root.Bound
	return s, nil
}

// WriteCheckpoint serializes an already-materialized decomposition — a
// Result plus the Configuration it was computed under — in the
// checkpoint format read by Load, Merge and MergeCheckpoints. It lets a
// holder of a published Result snapshot (the serving layer's
// copy-on-publish view) produce a mergeable checkpoint without touching
// the live engine. The Result must carry modes (a Distributed Result
// does not; Save gathers them instead). A provenance mark in cfg.Shard
// is stamped into the checkpoint exactly as Save stamps a WithShard
// model's, so an exported view stays mergeable under the same
// disjointness checks.
func WriteCheckpoint(w io.Writer, cfg Configuration, res *Result) error {
	if w == nil {
		return errors.New("parsvd: WriteCheckpoint with nil writer")
	}
	if res == nil {
		return errors.New("parsvd: WriteCheckpoint with nil result")
	}
	if res.Modes == nil {
		return errors.New("parsvd: WriteCheckpoint needs a Result carrying modes")
	}
	shard := core.ShardID{Index: cfg.Shard.Index, Count: cfg.Shard.Count}
	if err := shard.Validate(); err != nil {
		return fmt.Errorf("parsvd: WriteCheckpoint: shard %d of %d: index must be in [0, count)",
			cfg.Shard.Index, cfg.Shard.Count)
	}
	// The Result is outside input: it is checked as a restore would check
	// it, so a malformed one is an error here, not a corrupt checkpoint
	// downstream.
	st := core.State{
		Opts:       stream.Options{K: cfg.Modes, FF: cfg.ForgetFactor, LowRank: cfg.LowRank, RLA: cfg.RLA},
		Modes:      res.Modes,
		Singular:   res.Singular,
		Iterations: res.Iterations,
		Snapshots:  res.Snapshots,
		Shard:      shard,
	}
	m, k := res.Modes.Dims()
	err := st.Opts.Validate()
	if err == nil {
		err = st.Opts.CheckState(m, k, st.Singular, st.Iterations, st.Snapshots)
	}
	if err != nil {
		return fmt.Errorf("parsvd: %w", err)
	}
	return core.WriteState(w, st)
}

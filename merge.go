package parsvd

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"

	"goparsvd/internal/core"
	"goparsvd/internal/merge"
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
	if s.closed {
		return errors.New("parsvd: Merge on closed SVD")
	}
	st, err := core.ReadState(r)
	if err != nil {
		return fmt.Errorf("parsvd: %w", err)
	}
	if st.Opts.K != s.cfg.k {
		return fmt.Errorf("%w: checkpoint has K = %d, model has K = %d",
			ErrMergeIncompatible, st.Opts.K, s.cfg.k)
	}
	if st.Opts.ForgetFactor != s.cfg.ff {
		return fmt.Errorf("%w: checkpoint has forget factor %g, model has %g",
			ErrMergeIncompatible, st.Opts.ForgetFactor, s.cfg.ff)
	}
	if err := s.checkProvenance(st.Shard); err != nil {
		return err
	}
	if s.rows != 0 && st.Modes.Rows() != s.rows {
		return fmt.Errorf("%w: checkpoint has %d snapshot rows, model has %d",
			ErrMergeIncompatible, st.Modes.Rows(), s.rows)
	}

	// A model that has seen no data adopts the checkpoint. Otherwise the
	// merge is the engine's update at forget factor 1 with the
	// checkpoint's scaled modes as the batch: restore the current
	// factorization, then absorb the checkpoint. Either way the restored
	// engine's iteration counter continues the facade's update count, so
	// the updates == iterations+1 invariant that keeps WAL sequence
	// numbers contiguous across checkpoint/restore survives the merge.
	modes, singular, snapshots := st.Modes, st.Singular, st.Snapshots
	if s.rows != 0 {
		res, err := s.eng.result()
		if err != nil {
			return err
		}
		if err := withModes(s.eng, res); err != nil {
			return err
		}
		modes, singular, snapshots = res.Modes, res.Singular, res.Snapshots+st.Snapshots
	}
	eng, err := restoreSerialEngine(s.cfg.coreOptions(), modes, singular, int(s.updates), snapshots)
	if err != nil {
		return fmt.Errorf("parsvd: restoring merged state: %w", err)
	}
	bound := s.mergeBound
	if s.rows != 0 {
		bound += math.Sqrt(eng.svd.Absorb(st.Modes, st.Singular))
	}

	// Point of no return: everything validated, swap the engine.
	if err := s.eng.close(); err != nil {
		return fmt.Errorf("%w: closing pre-merge engine: %w", ErrEngineFailed, err)
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
	if id.IsZero() {
		return nil
	}
	seen := s.absorbed
	if !s.cfg.shard.IsZero() {
		seen = append(append([]core.ShardID(nil), seen...), s.cfg.shard)
	}
	for _, a := range seen {
		if a == id {
			return fmt.Errorf("%w: shard %d of %d", ErrShardOverlap, id.Index, id.Count)
		}
		if a.Count != id.Count {
			return fmt.Errorf("%w: shard %d of %d cannot be disjoint from already-held shard %d of %d (different partitionings)",
				ErrMergeIncompatible, id.Index, id.Count, a.Index, a.Count)
		}
	}
	return nil
}

// withModes fills in the global modes of a Result that carries none
// (Distributed keeps them row-scattered in the fleet) through e's
// checkpoint form: one gather.
func withModes(e engine, res *Result) error {
	if res.Modes != nil {
		return nil
	}
	var buf bytes.Buffer
	if err := e.save(&buf, res); err != nil {
		return err
	}
	st, err := core.ReadState(&buf)
	if err != nil {
		return err
	}
	res.Modes, res.Singular = st.Modes, st.Singular
	return nil
}

// MergeBound reports the accumulated Frobenius-norm truncation bound of
// every merge applied to this model. By Weyl's inequality each singular
// value of the merged model is within this bound of the corresponding
// value of the exact factorization of the union stream. Zero for a
// model never merged.
func (s *SVD) MergeBound() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	states := make([]core.State, len(paths))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, fmt.Errorf("parsvd: %w", err)
		}
		st, err := core.ReadState(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("parsvd: %s: %w", p, err)
		}
		states[i] = st
	}
	return mergeStates(states, paths)
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
	states := make([]core.State, len(readers))
	labels := make([]string, len(readers))
	for i, r := range readers {
		labels[i] = fmt.Sprintf("checkpoint %d", i)
		if r == nil {
			return nil, fmt.Errorf("parsvd: MergeReaders: %s is a nil reader", labels[i])
		}
		st, err := core.ReadState(r)
		if err != nil {
			return nil, fmt.Errorf("parsvd: %s: %w", labels[i], err)
		}
		states[i] = st
	}
	return mergeStates(states, labels)
}

// mergeStates validates the whole checkpoint set (compatibility and
// pairwise-disjoint provenance — before any merge work runs), reduces it
// up a balanced pairwise merge tree and wraps the root as a serial SVD.
// labels name the operands in error messages (file paths for
// MergeCheckpoints, reader indices for MergeReaders).
func mergeStates(states []core.State, labels []string) (*SVD, error) {
	ref := states[0]
	for i, st := range states[1:] {
		if st.Opts.K != ref.Opts.K {
			return nil, fmt.Errorf("%w: %s has K = %d, %s has K = %d",
				ErrMergeIncompatible, labels[i+1], st.Opts.K, labels[0], ref.Opts.K)
		}
		if st.Opts.ForgetFactor != ref.Opts.ForgetFactor {
			return nil, fmt.Errorf("%w: %s has forget factor %g, %s has %g",
				ErrMergeIncompatible, labels[i+1], st.Opts.ForgetFactor, labels[0], ref.Opts.ForgetFactor)
		}
		if st.Modes.Rows() != ref.Modes.Rows() {
			return nil, fmt.Errorf("%w: %s has %d snapshot rows, %s has %d",
				ErrMergeIncompatible, labels[i+1], st.Modes.Rows(), labels[0], ref.Modes.Rows())
		}
	}
	var absorbed []core.ShardID
	var absorbedAt []int // state index of each absorbed mark, for error labels
	for i, st := range states {
		if st.Shard.IsZero() {
			continue
		}
		for j, prev := range absorbed {
			if prev == st.Shard {
				return nil, fmt.Errorf("%w: %s and %s both hold shard %d of %d",
					ErrShardOverlap, labels[absorbedAt[j]], labels[i], st.Shard.Index, st.Shard.Count)
			}
			if prev.Count != st.Shard.Count {
				return nil, fmt.Errorf("%w: %s is shard %d of %d but %s is shard %d of %d (different partitionings)",
					ErrMergeIncompatible, labels[i], st.Shard.Index, st.Shard.Count,
					labels[absorbedAt[j]], prev.Index, prev.Count)
			}
		}
		absorbed = append(absorbed, st.Shard)
		absorbedAt = append(absorbedAt, i)
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
	eng, err := restoreSerialEngine(ref.Opts, root.U, root.S,
		root.Iterations, root.Snapshots)
	if err != nil {
		return nil, fmt.Errorf("parsvd: restoring merged state: %w", err)
	}
	s := &SVD{cfg: restoredConfig(eng.opts), eng: eng}
	s.rows = root.U.Rows()
	s.snapshots = root.Snapshots
	s.updates = int64(root.Iterations) + 1 // Initialize counted as an update
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
	opts := core.Options{
		K:            cfg.Modes,
		ForgetFactor: cfg.ForgetFactor,
		LowRank:      cfg.LowRank,
		RLA:          cfg.RLA,
		R1:           cfg.InitRank,
	}
	// Round-trip through the restore validator so a malformed Result is
	// an error here, not a corrupt checkpoint downstream.
	eng, err := restoreSerialEngine(opts, res.Modes, res.Singular,
		res.Iterations, res.Snapshots)
	if err != nil {
		return fmt.Errorf("parsvd: %w", err)
	}
	st := eng.state()
	st.Shard = shard
	return core.WriteState(w, st)
}

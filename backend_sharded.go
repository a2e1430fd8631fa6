package parsvd

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"goparsvd/internal/core"
	"goparsvd/internal/mat"
	"goparsvd/internal/merge"
)

// shardedEngine is the WithShards map-reduce: n independent sub-engines
// of the configured backend, each fitting a disjoint subset of the
// batch stream, reduced at result time up a balanced pairwise merge
// tree (internal/merge). Batches are dealt round-robin, so a long Fit
// spreads its snapshots evenly; the merge is recomputed per state()
// call from the live shard states, which keeps Push cheap and makes the
// reduction stateless.
type shardedEngine struct {
	cfg  config
	subs []engine
	next int // round-robin cursor
	fed  []bool

	// bound is the latest reduction's accumulated truncation bound
	// (the Bound of the merge tree's root), set by each state() call.
	bound float64
}

func newShardedEngine(cfg config) *shardedEngine {
	e := &shardedEngine{
		cfg:  cfg,
		subs: make([]engine, cfg.shards),
		fed:  make([]bool, cfg.shards),
	}
	for i := range e.subs {
		switch cfg.backend {
		case Serial:
			e.subs[i] = newSerialEngine(cfg.opts)
		case Parallel:
			e.subs[i] = newParallelEngine(cfg.opts, cfg.ranks)
		case Distributed:
			e.subs[i] = newDistEngine(cfg)
		}
	}
	return e
}

// push feeds the batch to the next shard in round-robin order.
func (e *shardedEngine) push(b *mat.Dense) error { return e.dealt(e.subs[e.next].push(b)) }

// pushSketch deals a factor pair and its rebuild like a batch.
func (e *shardedEngine) pushSketch(q, s, a *mat.Dense) error {
	return e.dealt(e.subs[e.next].pushSketch(q, s, a))
}

// dealt moves the round-robin cursor past the shard that just took an
// update, marking it fed unless the update failed.
func (e *shardedEngine) dealt(err error) error {
	if err == nil {
		e.fed[e.next] = true
	}
	e.next = (e.next + 1) % len(e.subs)
	return err
}

// state reduces the states of the fed shards (a short stream may deal
// fewer batches than there are shards) into one global factorization.
func (e *shardedEngine) state() (core.State, error) {
	var st core.State
	parts := make([]*merge.Partial, 0, len(e.subs))
	for i, sub := range e.subs {
		if !e.fed[i] {
			continue
		}
		var err error
		if st, err = sub.state(); err != nil {
			return core.State{}, fmt.Errorf("parsvd: shard %d of %d: %w", i, len(e.subs), err)
		}
		parts = append(parts, &merge.Partial{
			U:          modeMatrix(st),
			S:          st.Singular,
			Iterations: st.Iterations,
			Snapshots:  st.Snapshots,
		})
	}
	root, err := merge.Tree(parts, merge.TreeOptions{
		K:       e.cfg.opts.K,
		Workers: runtime.GOMAXPROCS(0),
	})
	if err != nil {
		return core.State{}, err
	}
	e.bound = root.Bound
	return core.State{
		Opts:       st.Opts,
		Modes:      root.U,
		Singular:   root.S,
		Iterations: root.Iterations,
		Snapshots:  root.Snapshots,
	}, nil
}

func (e *shardedEngine) stats() Stats {
	var st Stats
	for _, sub := range e.subs {
		s := sub.stats()
		st.Messages += s.Messages
		st.Bytes += s.Bytes
	}
	return st
}

func (e *shardedEngine) close() error {
	errs := make([]error, 0, len(e.subs))
	for _, sub := range e.subs {
		errs = append(errs, sub.close())
	}
	return errors.Join(errs...)
}

// setDeadline forwards a Fit deadline to every deadline-aware shard
// (the Distributed sub-engines' wire operations).
func (e *shardedEngine) setDeadline(t time.Time) {
	for _, sub := range e.subs {
		if da, ok := sub.(deadlineAware); ok {
			da.setDeadline(t)
		}
	}
}

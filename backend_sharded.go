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

	rows   int // global row count, 0 until the first batch
	next   int // round-robin cursor
	fed    []bool
	failed error

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

func (e *shardedEngine) push(b *mat.Dense) error {
	if e.failed != nil {
		return e.failed
	}
	// The sub-engine scans the values; the shape is checked here, against
	// every shard's rows.
	if err := checkShape(b, e.rows); err != nil {
		return err
	}
	if e.rows == 0 {
		e.rows = b.Rows()
	}
	i := e.next
	e.next = (e.next + 1) % len(e.subs)
	if err := e.subs[i].push(b); err != nil {
		if errors.Is(err, ErrEngineFailed) {
			e.failed = err
		}
		return err
	}
	e.fed[i] = true
	return nil
}

// state reduces the states of the fed shards (a short stream may deal
// fewer batches than there are shards) into one global factorization.
func (e *shardedEngine) state() (core.State, error) {
	if e.failed != nil {
		return core.State{}, e.failed
	}
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
	if len(parts) == 0 {
		return core.State{}, errors.New("parsvd: no data ingested yet")
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

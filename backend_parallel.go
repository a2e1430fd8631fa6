package parsvd

import (
	"errors"
	"fmt"
	"sync"

	"goparsvd/internal/core"
	"goparsvd/internal/grid"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
)

// parallelEngine is ParSVD_Parallel behind the facade: a persistent world
// of in-process ranks, each a goroutine owning one row block of the
// snapshot matrix and one core.Parallel engine. The facade feeds global
// batches; the engine partitions rows, dispatches one operation to every
// rank (so the MPI-style collectives inside always line up), and collects
// per-rank replies. A rank whose engine returns an error aborts the world,
// so every peer blocked in a collective returns too, and the engine is
// then permanently failed with that error.
type parallelEngine struct {
	opts  core.Options
	ranks int

	world *mpi.World
	cmds  []chan parOp
	wg    sync.WaitGroup

	rows   int // global row count, 0 until the first batch
	parts  []grid.Range
	failed error
}

// parOp is one rank's share of an operation: the push of its row block,
// or the gather when block is nil.
type parOp struct {
	block *mat.Dense
	reply chan<- parReply
}

type parReply struct {
	rank int
	err  error
	st   core.State // rank 0's gather: the global state, modes mode-major
}

func newParallelEngine(opts core.Options, ranks int) *parallelEngine {
	pe := &parallelEngine{
		opts:  opts,
		ranks: ranks,
		world: mpi.NewWorld(ranks),
		cmds:  make([]chan parOp, ranks),
	}
	for r := 0; r < ranks; r++ {
		pe.cmds[r] = make(chan parOp)
		pe.wg.Add(1)
		go pe.rankLoop(r)
	}
	return pe
}

// rankLoop is one rank's service goroutine: it applies operations in
// arrival order. An engine error (including the ErrAborted a collective
// returns when a peer rank failed) aborts the world and becomes the reply.
func (pe *parallelEngine) rankLoop(rank int) {
	defer pe.wg.Done()
	c := pe.world.Comm(rank)
	var eng *core.Parallel
	for op := range pe.cmds[rank] {
		reply := parReply{rank: rank}
		var err error
		switch {
		case op.block == nil:
			var rows []*mat.Dense
			rows, err = eng.GatherModeRows()
			if rank == 0 && err == nil {
				reply.st = core.State{
					Opts:       eng.Options(),
					ModeBlocks: rows,
					Singular:   eng.SingularValues(),
					Iterations: eng.Iterations(),
					Snapshots:  eng.SnapshotsSeen(),
				}
			}
		case eng == nil:
			eng = core.NewParallel(c, pe.opts)
			err = eng.Initialize(op.block)
		default:
			err = eng.IncorporateData(op.block)
		}
		if err != nil {
			pe.world.Abort()
			reply.err = fmt.Errorf("parsvd: rank %d: %w", rank, err)
		}
		op.reply <- reply
	}
}

// dispatch hands one operation to every rank and waits for all replies,
// returning rank 0's reply. mk builds the per-rank operation. If any rank
// failed, the engine is failed for good with the originating error,
// preferred over the ErrAborted echoes of the ranks that were merely
// blocked on a collective, wrapped in ErrEngineFailed with what, the
// operation's name.
func (pe *parallelEngine) dispatch(what string, mk func(rank int) parOp) (parReply, error) {
	replyCh := make(chan parReply, pe.ranks)
	for r := 0; r < pe.ranks; r++ {
		op := mk(r)
		op.reply = replyCh
		pe.cmds[r] <- op
	}
	var root parReply
	var firstErr error
	for i := 0; i < pe.ranks; i++ {
		rep := <-replyCh
		if rep.rank == 0 {
			root = rep
		}
		if rep.err == nil {
			continue
		}
		if firstErr == nil || (errors.Is(firstErr, mpi.ErrAborted) && !errors.Is(rep.err, mpi.ErrAborted)) {
			firstErr = rep.err
		}
	}
	if firstErr != nil {
		pe.failed = fmt.Errorf("%w: %s failed: %w", ErrEngineFailed, what, firstErr)
		return root, pe.failed
	}
	return root, nil
}

func (pe *parallelEngine) push(b *mat.Dense) error {
	if pe.failed != nil {
		return pe.failed
	}
	if err := checkBatch(b, pe.rows); err != nil {
		return err
	}
	if pe.rows == 0 {
		if b.Rows() < pe.ranks {
			return fmt.Errorf("parsvd: %d snapshot rows cannot be split across %d ranks", b.Rows(), pe.ranks)
		}
		pe.rows = b.Rows()
		pe.parts = grid.Partition(pe.rows, pe.ranks)
	}
	_, err := pe.dispatch("parallel update", func(rank int) parOp {
		p := pe.parts[rank]
		return parOp{block: b.SliceRows(p.Start, p.End)}
	})
	return err
}

// state gathers the global state at rank 0: one collective.
func (pe *parallelEngine) state() (core.State, error) {
	if pe.failed != nil {
		return core.State{}, pe.failed
	}
	if pe.rows == 0 {
		return core.State{}, errors.New("parsvd: no data ingested yet")
	}
	root, err := pe.dispatch("gathering modes", func(int) parOp { return parOp{} })
	return root.st, err
}

func (pe *parallelEngine) stats() Stats {
	st := pe.world.Stats()
	return Stats{Ranks: st.Ranks, Messages: st.Messages, Bytes: st.Bytes}
}

func (pe *parallelEngine) close() error {
	for _, ch := range pe.cmds {
		close(ch)
	}
	pe.wg.Wait()
	return nil
}

package parsvd

import (
	"fmt"

	"goparsvd/internal/core"
	"goparsvd/internal/mat"
	"goparsvd/internal/stream"
)

// serialEngine is the facade's in-process engine, internal/stream's:
// ParSVD_Serial, and ParSVD_Parallel when built over row blocks. It gets
// batches SVD has already checked; an error it returns wraps
// ErrEngineFailed, and SVD never drives the engine again.
type serialEngine struct {
	svd   *stream.SVD
	modes [1]*mat.Dense // state's ModeBlocks, kept so a read allocates none
}

// newSerialEngine builds ParSVD_Serial for options the facade has already
// checked.
func newSerialEngine(opts stream.Options) *serialEngine {
	return &serialEngine{svd: stream.New(opts)}
}

// newParallelEngine builds ParSVD_Parallel over ranks row blocks
// (stream.NewBlocked): the Serial engine with the TSQR of Listing 4 as its
// factor step, whose modes match a Distributed fleet of ranks workers bit
// for bit.
func newParallelEngine(opts stream.Options, ranks int) *serialEngine {
	return &serialEngine{svd: stream.NewBlocked(opts, ranks)}
}

// restoreSerialEngine rebuilds an engine from held state (a checkpoint or
// a merge), refusing invalid options or state with an error.
func restoreSerialEngine(st core.State) (*serialEngine, error) {
	svd, err := stream.Restore(st.Opts, modeMatrix(st), st.Singular, st.Iterations, st.Snapshots)
	if err != nil {
		return nil, err
	}
	return &serialEngine{svd: svd}, nil
}

// modeMatrix is st's modes as the M×K matrix, transposed out of
// ModeBlocks when st holds them mode-major; nil when it holds none.
func modeMatrix(st core.State) *mat.Dense {
	if st.Modes != nil || len(st.ModeBlocks) == 0 {
		return st.Modes
	}
	return core.ModeMatrix(st.ModeBlocks...)
}

func (e *serialEngine) push(b *mat.Dense) error {
	update := e.svd.IncorporateData
	if !e.svd.Initialized() {
		update = e.svd.Initialize
	}
	if err := update(b); err != nil {
		return fmt.Errorf("%w: update failed: %w", ErrEngineFailed, err)
	}
	return nil
}

// pushSketch pushes the batch SVD rebuilt from the pair.
func (e *serialEngine) pushSketch(_, _, a *mat.Dense) error { return e.push(a) }

// state reads the engine in place: the modes stay mode-major.
func (e *serialEngine) state() (core.State, error) {
	e.modes[0] = e.svd.ModeRows()
	return core.State{
		Opts:       e.svd.Options(),
		ModeBlocks: e.modes[:],
		Singular:   e.svd.SingularValues(),
		Iterations: e.svd.Iterations(),
		Snapshots:  e.svd.SnapshotsSeen(),
	}, nil
}

func (e *serialEngine) stats() Stats { return Stats{} }

// close hands the engine's buffer to the next bring-up in the process
// (stream.SVD.Release). state's ModeBlocks are dead afterwards; a Result
// built from them is a copy and stays the caller's.
func (e *serialEngine) close() error {
	e.svd.Release()
	return nil
}

package parsvd

import (
	"errors"
	"fmt"

	"goparsvd/internal/core"
	"goparsvd/internal/mat"
	"goparsvd/internal/stream"
)

// serialEngine is the facade's in-process engine, internal/stream's:
// ParSVD_Serial, and ParSVD_Parallel when built over ranks row blocks.
// Dimension checks happen here, before the engine, which panics on misuse;
// an error it returns fails this engine for good.
type serialEngine struct {
	svd    *stream.SVD
	ranks  int           // the row blocks of a Parallel engine's TSQR, 0 for Serial
	rows   int           // 0 until the first batch seeds the decomposition
	modes  [1]*mat.Dense // state's ModeBlocks, kept so a read allocates none
	failed error         // set once the engine returned an error: it is dead
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
	return &serialEngine{svd: stream.NewBlocked(opts, ranks), ranks: ranks}
}

// restoreSerialEngine rebuilds an engine from held state (a checkpoint or
// a merge), refusing invalid options or state with an error.
func restoreSerialEngine(st core.State) (*serialEngine, error) {
	modes := modeMatrix(st)
	svd, err := stream.Restore(st.Opts, modes, st.Singular, st.Iterations, st.Snapshots)
	if err != nil {
		return nil, err
	}
	return &serialEngine{svd: svd, rows: modes.Rows()}, nil
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
	if e.failed != nil {
		return e.failed
	}
	if err := checkBatch(b, e.rows); err != nil {
		return err
	}
	update := e.svd.IncorporateData
	if e.rows == 0 {
		if b.Rows() < e.ranks {
			return fmt.Errorf("parsvd: %d snapshot rows cannot be split across %d ranks", b.Rows(), e.ranks)
		}
		update = e.svd.Initialize
	}
	if err := update(b); err != nil {
		e.failed = fmt.Errorf("%w: update failed: %w", ErrEngineFailed, err)
		return e.failed
	}
	e.rows = b.Rows()
	return nil
}

// state reads the engine in place: the modes stay mode-major.
func (e *serialEngine) state() (core.State, error) {
	if e.failed != nil {
		return core.State{}, e.failed
	}
	if e.rows == 0 {
		return core.State{}, errors.New("parsvd: no data ingested yet")
	}
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

func (e *serialEngine) close() error { return nil }

// coefficients / reconstruct power the facade's projection utilities.
func (e *serialEngine) coefficients(a *mat.Dense) (*mat.Dense, error) {
	if e.rows == 0 {
		return nil, errors.New("parsvd: no data ingested yet")
	}
	if a == nil || a.Rows() != e.rows {
		return nil, fmt.Errorf("parsvd: Coefficients needs %d-row snapshots", e.rows)
	}
	return mat.Mul(e.svd.ModeRows(), a), nil
}

func (e *serialEngine) reconstruct(coeffs *mat.Dense) (*mat.Dense, error) {
	if e.rows == 0 {
		return nil, errors.New("parsvd: no data ingested yet")
	}
	if k := e.svd.ModeRows().Rows(); coeffs == nil || coeffs.Rows() != k {
		return nil, fmt.Errorf("parsvd: Reconstruct needs %d-row coefficients", k)
	}
	return mat.MulTransA(e.svd.ModeRows(), coeffs), nil
}

// checkBatch validates a snapshot batch against the rows seen so far
// (rows == 0 means no batch yet). Non-finite values are rejected on
// every backend — a NaN or Inf snapshot would silently corrupt the
// running factorization — so code written against one backend behaves
// identically on the others.
func checkBatch(b *mat.Dense, rows int) error {
	if err := checkShape(b, rows); err != nil {
		return err
	}
	if i := mat.FirstNonFinite(b.RawData()); i >= 0 {
		return fmt.Errorf("parsvd: snapshot batch contains a non-finite value (%g)", b.RawData()[i])
	}
	return nil
}

// checkShape is checkBatch without the scan for non-finite values.
func checkShape(b *mat.Dense, rows int) error {
	if b == nil || b.IsEmpty() {
		return errors.New("parsvd: empty snapshot batch")
	}
	if rows != 0 && b.Rows() != rows {
		return fmt.Errorf("parsvd: batch has %d rows, want %d", b.Rows(), rows)
	}
	return nil
}

package parsvd

import (
	"errors"
	"fmt"

	"goparsvd/internal/core"
	"goparsvd/internal/mat"
	"goparsvd/internal/stream"
)

// serialEngine is the facade's in-process engine: internal/stream's
// engine and the validated options its checkpoints record. It is
// ParSVD_Serial, and ParSVD_Parallel when built over ranks row blocks.
// Dimension checks happen here, before the engine, which panics on misuse;
// an error it returns fails this engine for good.
type serialEngine struct {
	opts   core.Options
	svd    *stream.SVD
	ranks  int   // the row blocks of a Parallel engine's TSQR, 0 for Serial
	rows   int   // 0 until the first batch seeds the decomposition
	failed error // set once the engine returned an error: it is dead
}

// newSerialEngine builds ParSVD_Serial for options the facade has already
// validated.
func newSerialEngine(opts core.Options) *serialEngine {
	opts, err := opts.Validated()
	if err != nil {
		panic(err)
	}
	return &serialEngine{opts: opts, svd: core.NewSerial(opts)}
}

// newParallelEngine builds ParSVD_Parallel over ranks row blocks
// (core.NewBlocked): the Serial engine with the TSQR of Listing 4 as its
// factor step, whose modes match a Distributed fleet of ranks workers bit
// for bit.
func newParallelEngine(opts core.Options, ranks int) *serialEngine {
	opts, err := opts.Validated()
	if err != nil {
		panic(err)
	}
	return &serialEngine{opts: opts, svd: core.NewBlocked(opts, ranks), ranks: ranks}
}

// restoreSerialEngine rebuilds an engine from held state (a checkpoint or
// a merge), refusing invalid options or state with an error.
func restoreSerialEngine(st core.State) (*serialEngine, error) {
	st, err := st.Validated()
	if err != nil {
		return nil, err
	}
	modes := modeMatrix(st)
	svd, err := core.RestoreSerial(st.Opts, modes, st.Singular, st.Iterations, st.Snapshots)
	if err != nil {
		return nil, err
	}
	return &serialEngine{opts: st.Opts, svd: svd, rows: modes.Rows()}, nil
}

// modeMatrix is st's modes as the M×K matrix, transposed out of ModeRows
// when st holds them mode-major.
func modeMatrix(st core.State) *mat.Dense {
	if st.Modes != nil {
		return st.Modes
	}
	return core.ModeMatrix(st.ModeRows)
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
	return core.State{
		Opts:       e.opts,
		ModeRows:   e.svd.ModeRows(),
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
	return core.Coefficients(e.svd, a), nil
}

func (e *serialEngine) reconstruct(coeffs *mat.Dense) (*mat.Dense, error) {
	if e.rows == 0 {
		return nil, errors.New("parsvd: no data ingested yet")
	}
	if k := e.svd.ModeRows().Rows(); coeffs == nil || coeffs.Rows() != k {
		return nil, fmt.Errorf("parsvd: Reconstruct needs %d-row coefficients", k)
	}
	return core.Reconstruct(e.svd, coeffs), nil
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

package parsvd

import (
	"errors"
	"fmt"
	"io"

	"goparsvd/internal/core"
	"goparsvd/internal/mat"
)

// serialEngine adapts core.Serial (ParSVD_Serial) to the facade engine
// contract: dimension checks happen here, before the panicking engine
// layer, so the public path stays error-based.
type serialEngine struct {
	opts core.Options
	eng  *core.Serial
	rows int // 0 until the first batch seeds the decomposition
}

func newSerialEngine(opts core.Options) *serialEngine {
	return &serialEngine{opts: opts, eng: core.NewSerial(opts)}
}

// restoredSerialEngine wraps an engine rebuilt from a checkpoint.
func restoredSerialEngine(eng *core.Serial) *serialEngine {
	return &serialEngine{opts: eng.Options(), eng: eng, rows: eng.ModeRows().Cols()}
}

func (e *serialEngine) push(b *mat.Dense) error {
	if err := checkBatch(b, e.rows); err != nil {
		return err
	}
	if e.rows == 0 {
		e.eng.Initialize(b)
		e.rows = b.Rows()
		return nil
	}
	e.eng.IncorporateData(b)
	return nil
}

func (e *serialEngine) result() (*Result, error) {
	if e.rows == 0 {
		return nil, errors.New("parsvd: no data ingested yet")
	}
	return &Result{
		Modes:      e.eng.ModeRows().T(), // a fresh M×K copy of the mode-major rows
		Singular:   append([]float64(nil), e.eng.SingularValues()...),
		Iterations: e.eng.Iterations(),
		Snapshots:  e.eng.SnapshotsSeen(),
	}, nil
}

func (e *serialEngine) save(w io.Writer, _ *Result) error {
	if e.rows == 0 {
		return errors.New("parsvd: no data ingested yet")
	}
	return e.eng.Save(w)
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
	return e.eng.Coefficients(a), nil
}

func (e *serialEngine) reconstruct(coeffs *mat.Dense) (*mat.Dense, error) {
	if e.rows == 0 {
		return nil, errors.New("parsvd: no data ingested yet")
	}
	if k := e.eng.ModeRows().Rows(); coeffs == nil || coeffs.Rows() != k {
		return nil, fmt.Errorf("parsvd: Reconstruct needs %d-row coefficients", k)
	}
	return e.eng.Reconstruct(coeffs), nil
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

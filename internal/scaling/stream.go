package scaling

import (
	"fmt"

	"goparsvd/internal/burgers"
	"goparsvd/internal/core"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/rla"
)

// StreamWorkload is the deterministic distributed streaming-SVD workload
// shared by every execution mode: the in-process goroutine world, the
// facade backends fed through parsvd.FromWorkload (the Distributed one
// scatters it to parsvd-worker processes), and the serial reference. The
// snapshot matrix is the analytic Burgers solution, so any two runs with
// the same parameters see bit-identical inputs — which is what lets
// callers demand bit-identical outputs across transports.
type StreamWorkload struct {
	// RowsPerRank is the grid-point count each rank owns (global rows =
	// RowsPerRank × ranks).
	RowsPerRank int
	// Snapshots is the total snapshot (column) count.
	Snapshots int
	// InitBatch is the column count of the Initialize batch; the rest
	// streams through IncorporateData in Batch-column chunks.
	InitBatch int
	// Batch is the streaming batch width.
	Batch int
	// K is the retained mode count.
	K int
	// R1 is the APMOS gather truncation used during initialization.
	R1 int
	// FF is the streaming forget factor.
	FF float64
	// LowRank switches the pipeline to the randomized SVD; Seed fixes its
	// sketch so runs stay reproducible.
	LowRank bool
	Seed    int64
}

// DefaultStreamWorkload is a laptop-scale configuration: large enough that
// every collective (scatter, gather, broadcast, TSQR correction exchange)
// carries real payloads, small enough to run in well under a second per
// rank.
func DefaultStreamWorkload() StreamWorkload {
	return StreamWorkload{
		RowsPerRank: 256,
		Snapshots:   96,
		InitBatch:   24,
		Batch:       12,
		K:           8,
		R1:          24,
		FF:          0.95,
		Seed:        7,
	}
}

// Validate reports whether the workload is well formed.
func (w StreamWorkload) Validate() error {
	switch {
	case w.RowsPerRank < 1:
		return fmt.Errorf("scaling: RowsPerRank = %d < 1", w.RowsPerRank)
	case w.Snapshots < 1:
		return fmt.Errorf("scaling: Snapshots = %d < 1", w.Snapshots)
	case w.InitBatch < 1 || w.InitBatch > w.Snapshots:
		return fmt.Errorf("scaling: InitBatch = %d outside [1,%d]", w.InitBatch, w.Snapshots)
	case w.Batch < 1:
		return fmt.Errorf("scaling: Batch = %d < 1", w.Batch)
	case w.K < 1:
		return fmt.Errorf("scaling: K = %d < 1", w.K)
	case w.FF <= 0 || w.FF > 1:
		return fmt.Errorf("scaling: FF = %g outside (0,1]", w.FF)
	}
	return nil
}

// BurgersConfig is the shared snapshot generator for the given world size:
// any consumer that replays it (the parsvd facade's workload Source, the
// serial reference, the Distributed backend's scatter) sees bit-identical
// inputs.
func (w StreamWorkload) BurgersConfig(ranks int) burgers.Config {
	return burgers.Config{L: 1, Re: 1000, Nx: w.RowsPerRank * ranks, Nt: w.Snapshots, TFinal: 2}
}

func (w StreamWorkload) coreOptions() core.Options {
	return core.Options{
		K:            w.K,
		ForgetFactor: w.FF,
		R1:           w.R1,
		LowRank:      w.LowRank,
		RLA:          rla.Options{Oversample: 10, PowerIters: 1, Seed: w.Seed},
	}
}

// StreamResult is one rank's view of a finished streaming run.
type StreamResult struct {
	// Singular holds the final truncated singular values (identical on
	// every rank after the closing broadcast).
	Singular []float64
	// Modes is the gathered M×K mode matrix; populated on rank 0 only.
	Modes *mat.Dense
	// Iterations is the number of streaming updates performed.
	Iterations int
}

// RunStream executes the full distributed streaming pipeline as one rank
// of c's world: APMOS initialization on the first InitBatch columns, then
// streaming IncorporateData updates over the remainder, and a final mode
// gather at rank 0. It is transport-agnostic: the same function body runs
// over goroutine ranks and over tcptransport endpoints.
func RunStream(c *mpi.Comm, w StreamWorkload) StreamResult {
	if err := w.Validate(); err != nil {
		panic(err)
	}
	bc := w.BurgersConfig(c.Size())
	parts := bc.Partition(c.Size())
	r0, r1 := parts[c.Rank()][0], parts[c.Rank()][1]

	eng := core.NewParallel(c, w.coreOptions())
	eng.Initialize(bc.Block(r0, r1, 0, w.InitBatch))
	for col := w.InitBatch; col < w.Snapshots; col += w.Batch {
		hi := col + w.Batch
		if hi > w.Snapshots {
			hi = w.Snapshots
		}
		eng.IncorporateData(bc.Block(r0, r1, col, hi))
	}
	rows := eng.GatherModeRows()
	var modes *mat.Dense
	if rows != nil {
		modes = core.ModeMatrix(rows...)
	}
	return StreamResult{
		Singular:   append([]float64(nil), eng.SingularValues()...),
		Modes:      modes,
		Iterations: eng.Iterations(),
	}
}

// RunStreamSerial runs the serial reference engine over the identical
// global snapshot sequence (same Burgers matrix, same batching), for
// accuracy checks against the distributed runs.
func RunStreamSerial(ranks int, w StreamWorkload) StreamResult {
	if err := w.Validate(); err != nil {
		panic(err)
	}
	bc := w.BurgersConfig(ranks)
	eng := core.NewSerial(w.coreOptions())
	eng.Initialize(bc.Block(0, bc.Nx, 0, w.InitBatch))
	for col := w.InitBatch; col < w.Snapshots; col += w.Batch {
		hi := col + w.Batch
		if hi > w.Snapshots {
			hi = w.Snapshots
		}
		eng.IncorporateData(bc.Block(0, bc.Nx, col, hi))
	}
	return StreamResult{
		Singular:   append([]float64(nil), eng.SingularValues()...),
		Modes:      eng.ModeRows().T(),
		Iterations: eng.Iterations(),
	}
}

package scaling

import (
	"fmt"

	"goparsvd/internal/burgers"
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
	case !(w.FF > 0 && w.FF <= 1): // the negated form also rejects NaN
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

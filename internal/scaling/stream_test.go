package scaling

import (
	"math"
	"testing"
	"time"

	"goparsvd/internal/core"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/mpi/tcptransport"
	"goparsvd/internal/postproc"
	"goparsvd/internal/rla"
	"goparsvd/internal/stream"
)

func smallWorkload() StreamWorkload {
	return StreamWorkload{
		RowsPerRank: 64,
		Snapshots:   48,
		InitBatch:   12,
		Batch:       12,
		K:           6,
		FF:          0.95,
		Seed:        7,
	}
}

// runChan executes the workload on p goroutine ranks and returns rank 0's
// result (which carries the gathered modes).
func runChan(t *testing.T, p int, w StreamWorkload) StreamResult {
	t.Helper()
	var res StreamResult
	if _, err := mpi.Run(p, func(c *mpi.Comm) {
		r := RunStream(c, w)
		if c.Rank() == 0 {
			res = r
		}
	}); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStreamDeterministic guards the property the multi-process
// verification rests on: two runs of the identical workload produce
// bit-identical singular values and modes.
func TestStreamDeterministic(t *testing.T) {
	w := smallWorkload()
	a := runChan(t, 4, w)
	b := runChan(t, 4, w)
	if !bitsEqual(a.Singular, b.Singular) {
		t.Error("singular values differ between identical runs")
	}
	if !bitsEqual(a.Modes.RawData(), b.Modes.RawData()) {
		t.Error("modes differ between identical runs")
	}
}

// TestStreamTCPMatchesChanBitForBit is the transport-equivalence contract
// at the full-pipeline level: the same deterministic workload over real
// loopback sockets must reproduce the in-process run exactly, bit for bit.
func TestStreamTCPMatchesChanBitForBit(t *testing.T) {
	w := smallWorkload()
	const p = 4
	want := runChan(t, p, w)

	var got StreamResult
	if _, err := tcptransport.Run(p, tcptransport.Options{
		DialTimeout: 10 * time.Second,
		IdleTimeout: 60 * time.Second,
	}, func(c *mpi.Comm) {
		r := RunStream(c, w)
		if c.Rank() == 0 {
			got = r
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(got.Singular, want.Singular) {
		t.Errorf("singular values differ across transports:\n tcp  %v\n chan %v", got.Singular, want.Singular)
	}
	gr, gc := got.Modes.Dims()
	wr, wc := want.Modes.Dims()
	if gr != wr || gc != wc {
		t.Fatalf("gathered modes shape %dx%d over tcp, %dx%d in-process", gr, gc, wr, wc)
	}
	if !bitsEqual(got.Modes.RawData(), want.Modes.RawData()) {
		t.Error("gathered modes differ across transports")
	}
}

// TestStreamMatchesSerial checks the workload against the serial streaming
// reference: distributed and serial engines follow different arithmetic
// paths, so the comparison is tolerance-based (this is the paper's Figure
// 1(a,b) statement on the shared workload).
func TestStreamMatchesSerial(t *testing.T) {
	w := smallWorkload()
	const p = 4
	par := runChan(t, p, w)
	ser := RunStreamSerial(p, w)

	if len(par.Singular) != len(ser.Singular) {
		t.Fatalf("mode count: parallel %d, serial %d", len(par.Singular), len(ser.Singular))
	}
	for i := range par.Singular {
		if d := math.Abs(par.Singular[i] - ser.Singular[i]); d > 1e-6*math.Max(1, ser.Singular[i]) {
			t.Errorf("sigma[%d]: parallel %g vs serial %g", i, par.Singular[i], ser.Singular[i])
		}
	}
	errs := postproc.CompareModes(ser.Modes, par.Modes)
	for _, e := range errs[:2] {
		if e.MaxAbs > 1e-4 {
			t.Errorf("mode %d: max|serial-parallel| = %.3e, want < 1e-4", e.Mode+1, e.MaxAbs)
		}
	}
}

// coreOptions is the engine configuration the workload runs with.
func (w StreamWorkload) coreOptions() core.Options {
	return core.Options{
		K:            w.K,
		ForgetFactor: w.FF,
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
// over goroutine ranks and over tcptransport endpoints. It runs under a
// harness (mpi.Run, tcptransport.Run): an invalid workload or an engine
// error panics, which the harness reports as that rank's failure.
func RunStream(c *mpi.Comm, w StreamWorkload) StreamResult {
	must(w.Validate())
	bc := w.BurgersConfig(c.Size())
	parts := bc.Partition(c.Size())
	r0, r1 := parts[c.Rank()][0], parts[c.Rank()][1]

	eng := core.NewParallel(c, w.coreOptions())
	must(eng.Initialize(bc.Block(r0, r1, 0, w.InitBatch)))
	for col := w.InitBatch; col < w.Snapshots; col += w.Batch {
		hi := col + w.Batch
		if hi > w.Snapshots {
			hi = w.Snapshots
		}
		must(eng.IncorporateData(bc.Block(r0, r1, col, hi)))
	}
	rows, err := eng.GatherModeRows()
	must(err)
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

// must panics with err; RunStream runs under a harness that reports a
// panicking rank.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// RunStreamSerial runs the serial reference engine over the identical
// global snapshot sequence (same Burgers matrix, same batching), for
// accuracy checks against the distributed runs.
func RunStreamSerial(ranks int, w StreamWorkload) StreamResult {
	must(w.Validate())
	bc := w.BurgersConfig(ranks)
	o := w.coreOptions()
	eng := stream.New(stream.Options{K: o.K, FF: o.ForgetFactor, LowRank: o.LowRank, RLA: o.RLA})
	must(eng.Initialize(bc.Block(0, bc.Nx, 0, w.InitBatch)))
	for col := w.InitBatch; col < w.Snapshots; col += w.Batch {
		hi := col + w.Batch
		if hi > w.Snapshots {
			hi = w.Snapshots
		}
		must(eng.IncorporateData(bc.Block(0, bc.Nx, col, hi)))
	}
	return StreamResult{
		Singular:   append([]float64(nil), eng.SingularValues()...),
		Modes:      eng.ModeRows().T(),
		Iterations: eng.Iterations(),
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestWorkloadValidateForgetFactor: a workload's forget factor outside
// (0, 1] is refused, NaN included.
func TestWorkloadValidateForgetFactor(t *testing.T) {
	for _, ff := range []float64{0, 1.5, math.NaN()} {
		w := smallWorkload()
		w.FF = ff
		if err := w.Validate(); err == nil {
			t.Errorf("FF %g accepted", ff)
		}
	}
}

package scaling

import (
	"math"
	"testing"
	"time"

	"goparsvd/internal/mpi"
	"goparsvd/internal/mpi/tcptransport"
	"goparsvd/internal/postproc"
)

func smallWorkload() StreamWorkload {
	return StreamWorkload{
		RowsPerRank: 64,
		Snapshots:   48,
		InitBatch:   12,
		Batch:       12,
		K:           6,
		R1:          16,
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

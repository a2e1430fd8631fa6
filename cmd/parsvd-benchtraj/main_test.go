package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: goparsvd/internal/mat
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkMulIntoSquare256 	    2940	    841887 ns/op	       0 B/op	       0 allocs/op
BenchmarkMulIntoSquare256 	    2900	    850000 ns/op	       0 B/op	       0 allocs/op
BenchmarkMulIntoSquare256 	    2950	    839000 ns/op	       0 B/op	       0 allocs/op
BenchmarkBatchedSkinny-8  	    2794	    459686 ns/op	       0 B/op	       0 allocs/op
BenchmarkNoMemStats       	     100	     12345 ns/op
BenchmarkSketchedPushWire-8	      50	   1234567 ns/op	     34816 wire-B/push	    2048 B/op	      12 allocs/op
PASS
ok  	goparsvd/internal/mat	9.2s
`

func parseSample(t *testing.T) *Run {
	t.Helper()
	run, err := parseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestParseBenchOutput(t *testing.T) {
	run := parseSample(t)
	if run.GoOS != "linux" || run.GoArch != "amd64" {
		t.Errorf("env parsed as %s/%s", run.GoOS, run.GoArch)
	}
	if !strings.Contains(run.CPU, "Xeon") {
		t.Errorf("cpu line lost: %q", run.CPU)
	}
	if len(run.Benches) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(run.Benches))
	}
	sq := run.Benches[0]
	if sq.Name != "BenchmarkMulIntoSquare256" || len(sq.NsOp) != 3 {
		t.Fatalf("first benchmark %q with %d samples", sq.Name, len(sq.NsOp))
	}
	if m := median(sq.NsOp); m != 841887 {
		t.Errorf("median ns/op = %g, want 841887", m)
	}
	// The -P suffix must be stripped so runs from different hosts compare.
	if run.Benches[1].Name != "BenchmarkBatchedSkinny" {
		t.Errorf("GOMAXPROCS suffix not stripped: %q", run.Benches[1].Name)
	}
	// Without -benchmem the alloc stats are unknown, not zero.
	if a := run.Benches[2].AllocsOp[0]; a != -1 {
		t.Errorf("missing allocs/op recorded as %g, want -1 sentinel", a)
	}
	// The custom wire-B/push metric is captured; benchmarks that don't
	// report it carry the -1 sentinel.
	if w := run.Benches[3].WireBPush[0]; w != 34816 {
		t.Errorf("wire-B/push recorded as %g, want 34816", w)
	}
	if w := run.Benches[0].WireBPush[0]; w != -1 {
		t.Errorf("missing wire-B/push recorded as %g, want -1 sentinel", w)
	}
}

// regress returns a copy of run with one benchmark's timings and allocs
// scaled/offset — the injection harness for the gate tests.
func regress(run *Run, name string, nsFactor float64, allocDelta float64) *Run {
	out := *run
	out.Benches = append([]Bench(nil), run.Benches...)
	for i := range out.Benches {
		if out.Benches[i].Name != name {
			continue
		}
		b := out.Benches[i]
		ns := make([]float64, len(b.NsOp))
		for j, v := range b.NsOp {
			ns[j] = v * nsFactor
		}
		al := make([]float64, len(b.AllocsOp))
		for j, v := range b.AllocsOp {
			al[j] = v + allocDelta
		}
		out.Benches[i].NsOp = ns
		out.Benches[i].AllocsOp = al
	}
	return &out
}

// TestInjectedNsRegressionFails is the acceptance demonstration: a run 12%
// slower than baseline on the same machine must fail the 10% gate.
func TestInjectedNsRegressionFails(t *testing.T) {
	base := parseSample(t)
	cur := regress(base, "BenchmarkMulIntoSquare256", 1.12, 0)
	report, failures := compareRuns(base, cur, 10, false)
	if len(failures) != 1 {
		t.Fatalf("want exactly 1 failure, got %d\n%s", len(failures), report)
	}
	if !strings.Contains(failures[0], "BenchmarkMulIntoSquare256") {
		t.Errorf("failure names wrong benchmark: %s", failures[0])
	}
	if !strings.Contains(report, "REGRESSION") {
		t.Errorf("report does not flag the regression:\n%s", report)
	}
}

// TestWithinThresholdPasses: a 5% drift on the same machine is noise, not a
// gate violation.
func TestWithinThresholdPasses(t *testing.T) {
	base := parseSample(t)
	cur := regress(base, "BenchmarkMulIntoSquare256", 1.05, 0)
	if _, failures := compareRuns(base, cur, 10, false); len(failures) != 0 {
		t.Fatalf("5%% drift failed the 10%% gate: %v", failures)
	}
}

// TestAllocIncreaseAlwaysFails: one extra alloc/op fails even when the
// environments differ, because allocation counts are machine-independent.
func TestAllocIncreaseAlwaysFails(t *testing.T) {
	base := parseSample(t)
	cur := regress(base, "BenchmarkBatchedSkinny", 1.0, 1)
	cur.CPU = "entirely different silicon"
	report, failures := compareRuns(base, cur, 10, false)
	if len(failures) != 1 {
		t.Fatalf("want 1 failure, got %d\n%s", len(failures), report)
	}
	if !strings.Contains(failures[0], "allocs/op") {
		t.Errorf("failure is not the alloc gate: %s", failures[0])
	}
}

// TestWireIncreaseAlwaysFails: wire bytes per push are deterministic
// geometry, so any increase gates even across differing environments.
func TestWireIncreaseAlwaysFails(t *testing.T) {
	base := parseSample(t)
	cur := parseSample(t)
	cur.CPU = "entirely different silicon"
	for i := range cur.Benches {
		if cur.Benches[i].Name != "BenchmarkSketchedPushWire" {
			continue
		}
		w := make([]float64, len(cur.Benches[i].WireBPush))
		for j, v := range cur.Benches[i].WireBPush {
			w[j] = v * 2
		}
		cur.Benches[i].WireBPush = w
	}
	report, failures := compareRuns(base, cur, 10, false)
	if len(failures) != 1 {
		t.Fatalf("want 1 failure, got %d\n%s", len(failures), report)
	}
	if !strings.Contains(failures[0], "wire-B/push") {
		t.Errorf("failure is not the wire gate: %s", failures[0])
	}
	if !strings.Contains(report, "WIRE-INCREASE") {
		t.Errorf("report does not flag the wire increase:\n%s", report)
	}
}

// TestCrossMachineNsNotGated: a huge slowdown on different hardware is
// reported but does not fail, unless -strict.
func TestCrossMachineNsNotGated(t *testing.T) {
	base := parseSample(t)
	cur := regress(base, "BenchmarkMulIntoSquare256", 3.0, 0)
	cur.CPU = "entirely different silicon"
	report, failures := compareRuns(base, cur, 10, false)
	if len(failures) != 0 {
		t.Fatalf("cross-machine timing was gated: %v", failures)
	}
	if !strings.Contains(report, "not gated") {
		t.Errorf("report does not explain the skipped gate:\n%s", report)
	}
	if _, failures := compareRuns(base, cur, 10, true); len(failures) != 1 {
		t.Error("-strict did not gate the cross-machine regression")
	}
}

// TestVanishedBenchmarkFails: silently dropping a gated benchmark must not
// pass the trajectory check.
func TestVanishedBenchmarkFails(t *testing.T) {
	base := parseSample(t)
	cur := parseSample(t)
	cur.Benches = cur.Benches[:1]
	_, failures := compareRuns(base, cur, 10, false)
	if len(failures) != 3 {
		t.Fatalf("want 3 missing-benchmark failures, got %d: %v", len(failures), failures)
	}
}

// TestBytesOpReportedNotGated: the table shows the current median B/op
// ("-" without -benchmem), and a B/op increase alone fails nothing.
func TestBytesOpReportedNotGated(t *testing.T) {
	base := parseSample(t)
	cur := parseSample(t)
	cur.Benches[3].BytesOp = []float64{4096}
	report, failures := compareRuns(base, cur, 10, false)
	if len(failures) != 0 {
		t.Fatalf("a B/op increase was gated: %v", failures)
	}
	for _, want := range []string{"B/op", "4096", "BenchmarkNoMemStats"} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	for _, line := range strings.Split(report, "\n") {
		if strings.HasPrefix(line, "BenchmarkNoMemStats") && len(strings.Fields(line)) != 7 {
			t.Errorf("a benchmark without -benchmem renders as %q, want ns/op, delta and three \"-\" cells", line)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
	if m := median(nil); m != -1 {
		t.Errorf("empty median = %g", m)
	}
}

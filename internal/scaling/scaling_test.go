package scaling

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunMeasuredSmall(t *testing.T) {
	cfg := MeasuredConfig{
		RowsPerRank: 64,
		Snapshots:   24,
		K:           4,
		R1:          8,
		Ranks:       []int{1, 2, 4},
		Trials:      1,
	}
	pts := RunMeasured(cfg)
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	for i, p := range pts {
		if p.Seconds <= 0 {
			t.Fatalf("point %d has non-positive time %g", i, p.Seconds)
		}
		if p.Ranks != cfg.Ranks[i] {
			t.Fatalf("point %d ranks %d, want %d", i, p.Ranks, cfg.Ranks[i])
		}
	}
	if pts[0].Efficiency != 1 {
		t.Fatalf("first efficiency %g, want 1", pts[0].Efficiency)
	}
	// Communication volume must grow with the rank count.
	if pts[2].CommBytes <= pts[1].CommBytes {
		t.Fatalf("comm bytes should grow: %d then %d", pts[1].CommBytes, pts[2].CommBytes)
	}
	// Single rank has no communication.
	if pts[0].CommBytes != 0 {
		t.Fatalf("1-rank run should move 0 bytes, moved %d", pts[0].CommBytes)
	}
}

func TestRunMeasuredInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	RunMeasured(MeasuredConfig{})
}

func TestModelWeakScalingShape(t *testing.T) {
	// The defining properties of Figure 1(c): the curve is near-flat
	// through hundreds of ranks (close-to-ideal weak scaling), then turns
	// up as the root's O(P) terms bite.
	m := DefaultThetaModel()
	t1 := m.Time(1)
	t256 := m.Time(256)
	t16384 := m.Time(16384)
	if t256 > 1.5*t1 {
		t.Fatalf("efficiency at 256 ranks only %.2f; figure shows near-ideal scaling", t1/t256)
	}
	if t16384 <= t256 {
		t.Fatal("root bottleneck should eventually show")
	}
	// Monotone non-decreasing in P.
	prev := 0.0
	for p := 1; p <= 4096; p *= 2 {
		cur := m.Time(p)
		if cur < prev {
			t.Fatalf("modeled time decreased at P=%d", p)
		}
		prev = cur
	}
}

func TestModelSeriesEfficiency(t *testing.T) {
	m := DefaultThetaModel()
	pts := m.Series(PowersOfTwo(64))
	if len(pts) != 7 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].Efficiency != 1 {
		t.Fatalf("base efficiency %g", pts[0].Efficiency)
	}
	for _, p := range pts {
		if p.Efficiency <= 0 || p.Efficiency > 1+1e-12 {
			t.Fatalf("efficiency out of range at P=%d: %g", p.Ranks, p.Efficiency)
		}
	}
}

func TestModelComputeBound(t *testing.T) {
	// With an absurdly fast network, time must be essentially flat in P
	// until the root SVD term dominates.
	m := DefaultThetaModel()
	m.LatencySec = 0
	m.BytesPerSec = math.Inf(1)
	t1, t64 := m.Time(1), m.Time(64)
	// Root randomized SVD is linear in P but tiny at 64 ranks.
	if t64 > 1.2*t1 {
		t.Fatalf("compute-bound model not flat: %g vs %g", t64, t1)
	}
}

func TestModelCommunicationTermsMatter(t *testing.T) {
	// Slowing the network must slow large-P runs but barely affect P=1.
	fast := DefaultThetaModel()
	slow := DefaultThetaModel()
	slow.BytesPerSec = 1e6 // 1 MB/s
	if slow.Time(1) != fast.Time(1) {
		t.Fatal("P=1 should not involve the network")
	}
	if slow.Time(256) <= fast.Time(256) {
		t.Fatal("slow network should hurt at 256 ranks")
	}
}

func TestPowersOfTwo(t *testing.T) {
	got := PowersOfTwo(16)
	want := []int{1, 2, 4, 8, 16}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestFormatSeries(t *testing.T) {
	out := FormatSeries("weak scaling", []Point{{Ranks: 1, Seconds: 0.5, Efficiency: 1}})
	if !strings.Contains(out, "weak scaling") || !strings.Contains(out, "ranks") {
		t.Fatalf("missing headers:\n%s", out)
	}
	if !strings.Contains(out, "5.0000e-01") {
		t.Fatalf("missing data row:\n%s", out)
	}
}

func TestModelInvalidRanksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ranks=0 did not panic")
		}
	}()
	DefaultThetaModel().Time(0)
}

func TestWriteCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "series.csv")
	points := []Point{{Ranks: 1, Seconds: 0.5, Efficiency: 1, CommBytes: 0}, {Ranks: 2, Seconds: 1, Efficiency: 0.5, CommBytes: 96}}
	if err := WriteCSV(path, points); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "ranks,seconds,efficiency,comm_bytes\n1,5.000000e-01,1.000000,0\n2,1.000000e+00,0.500000,96\n"
	if string(got) != want {
		t.Fatalf("CSV =\n%s\nwant\n%s", got, want)
	}
	if err := WriteCSV(filepath.Join(t.TempDir(), "missing", "series.csv"), points); err == nil {
		t.Fatal("WriteCSV into a missing directory returned nil")
	}
}

// failingWriter accepts n bytes, then fails every write, as a file on a
// disk that fills up does.
type failingWriter struct{ n int }

var errDiskFull = errors.New("no space left on device")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errDiskFull
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWriteCSVReturnsWriteError(t *testing.T) {
	points := []Point{{Ranks: 1, Seconds: 1, Efficiency: 1}, {Ranks: 2, Seconds: 2, Efficiency: 0.5}}
	// Fail in the header, in the first row and in the last row.
	for _, n := range []int{0, 40, 70} {
		if err := writeCSV(&failingWriter{n: n}, points); !errors.Is(err, errDiskFull) {
			t.Errorf("failing after %d bytes: err = %v, want %v", n, err, errDiskFull)
		}
	}
	// A full device fails the write through WriteCSV too.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	if err := WriteCSV("/dev/full", points); err == nil {
		t.Fatal("WriteCSV to /dev/full returned nil")
	}
}

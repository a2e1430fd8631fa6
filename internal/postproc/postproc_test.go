package postproc

import (
	"errors"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"goparsvd/internal/mat"
)

func TestAlignSignsFlipsOnlyNegativeDots(t *testing.T) {
	ref := mat.NewFromRows([][]float64{{1, 1}, {0, 1}})
	cand := mat.NewFromRows([][]float64{{-1, 1}, {0, 1}})
	out := AlignSigns(ref, cand)
	if out.At(0, 0) != 1 { // column 0 flipped
		t.Fatalf("column 0 not flipped: %v", out)
	}
	if out.At(0, 1) != 1 || out.At(1, 1) != 1 { // column 1 untouched
		t.Fatalf("column 1 altered: %v", out)
	}
	// Input must not be mutated.
	if cand.At(0, 0) != -1 {
		t.Fatal("AlignSigns mutated its input")
	}
}

func TestAlignSignsShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	AlignSigns(mat.New(2, 2), mat.New(3, 2))
}

func TestCompareModesIdentical(t *testing.T) {
	m := mat.NewFromRows([][]float64{{0.6, 0.8}, {0.8, -0.6}})
	errs := CompareModes(m, m)
	for _, e := range errs {
		if e.L2 != 0 || e.MaxAbs != 0 || math.Abs(e.Cosine-1) > 1e-15 {
			t.Fatalf("self-comparison not exact: %+v", e)
		}
	}
}

func TestCompareModesSignInvariant(t *testing.T) {
	m := mat.NewFromRows([][]float64{{0.6, 0.8}, {0.8, -0.6}})
	flipped := mat.Scale(-1, m)
	errs := CompareModes(m, flipped)
	for _, e := range errs {
		if e.L2 > 1e-15 {
			t.Fatalf("sign flip should be invisible: %+v", e)
		}
	}
}

func TestCompareModesDetectsError(t *testing.T) {
	a := mat.NewFromRows([][]float64{{1, 0}, {0, 1}})
	b := mat.NewFromRows([][]float64{{1, 0.1}, {0, 1}})
	errs := CompareModes(a, b)
	if errs[1].L2 == 0 || errs[1].MaxAbs != 0.1 {
		t.Fatalf("perturbation not detected: %+v", errs[1])
	}
	if errs[1].Mode != 1 {
		t.Fatalf("mode index %d, want 1", errs[1].Mode)
	}
}

func TestEnergyFractions(t *testing.T) {
	f := EnergyFractions([]float64{3, 4}) // energies 9, 16, total 25
	if math.Abs(f[0]-9.0/25) > 1e-15 || math.Abs(f[1]-1) > 1e-15 {
		t.Fatalf("fractions = %v", f)
	}
	if got := EnergyFractions(nil); len(got) != 0 {
		t.Fatal("empty spectrum should give empty fractions")
	}
	z := EnergyFractions([]float64{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("zero spectrum fractions = %v", z)
	}
}

func TestSingularValueReport(t *testing.T) {
	var sb strings.Builder
	SingularValueReport(&sb, []float64{2, 1})
	out := sb.String()
	if !strings.Contains(out, "mode") || !strings.Contains(out, "2.000000e+00") {
		t.Fatalf("report missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines", len(lines))
	}
}

func TestWriteSingularValuesCSV(t *testing.T) {
	var sb strings.Builder
	err := WriteSingularValuesCSV(&sb, []string{"serial", "parallel"},
		[]float64{1, 2}, []float64{1.5, 2.5})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "mode,serial,parallel" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,") || !strings.Contains(lines[2], "2.5") {
		t.Fatalf("rows = %v", lines[1:])
	}
}

func TestWriteSingularValuesCSVErrors(t *testing.T) {
	var sb strings.Builder
	if err := WriteSingularValuesCSV(&sb, []string{"a"}, []float64{1}, []float64{2}); err == nil {
		t.Fatal("label/series mismatch accepted")
	}
	if err := WriteSingularValuesCSV(&sb, []string{"a", "b"}, []float64{1}, []float64{2, 3}); err == nil {
		t.Fatal("ragged series accepted")
	}
}

func TestWriteModesCSV(t *testing.T) {
	var sb strings.Builder
	modes := mat.NewFromRows([][]float64{{0.1, 0.2}, {0.3, 0.4}})
	if err := WriteModesCSV(&sb, []float64{0, 1}, modes); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "x,mode1,mode2" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %d", len(lines))
	}
	if err := WriteModesCSV(&sb, []float64{0}, modes); err == nil {
		t.Fatal("coordinate length mismatch accepted")
	}
}

func TestASCIIPlotContainsSeries(t *testing.T) {
	var sb strings.Builder
	x := make([]float64, 100)
	y := make([]float64, 100)
	for i := range x {
		x[i] = math.Sin(float64(i) / 10)
		y[i] = math.Cos(float64(i) / 10)
	}
	ASCIIPlot(&sb, "modes", 40, 10, []string{"sin", "cos"}, x, y)
	out := sb.String()
	if !strings.Contains(out, "modes") || !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatalf("plot missing content:\n%s", out)
	}
	if !strings.Contains(out, "sin") || !strings.Contains(out, "cos") {
		t.Fatalf("legend missing:\n%s", out)
	}
}

func TestASCIIPlotDegenerateInputs(t *testing.T) {
	var sb strings.Builder
	ASCIIPlot(&sb, "empty", 40, 10, nil)
	if !strings.Contains(sb.String(), "nothing to plot") {
		t.Fatal("empty plot not handled")
	}
	sb.Reset()
	// Constant series must not divide by zero.
	ASCIIPlot(&sb, "const", 20, 5, []string{"c"}, []float64{2, 2, 2})
	if sb.Len() == 0 {
		t.Fatal("constant series produced no output")
	}
}

func TestWritePGMHeatmap(t *testing.T) {
	var sb strings.Builder
	field := []float64{0, 1, 2, 3, 4, 5}
	if err := WritePGMHeatmap(&sb, field, 2, 3); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "P2\n3 2\n255\n") {
		t.Fatalf("bad PGM header:\n%s", out)
	}
	if !strings.Contains(out, "255") || !strings.Contains(out, "0") {
		t.Fatal("heatmap should span the full gray range")
	}
	if err := WritePGMHeatmap(&sb, field, 2, 2); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestWritePGMHeatmapConstantField(t *testing.T) {
	var sb strings.Builder
	if err := WritePGMHeatmap(&sb, []float64{7, 7, 7, 7}, 2, 2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "NaN") {
		t.Fatal("constant field mishandled")
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

// TestWritersReturnWriteError: each file writer returns the first write
// error, whether the output runs out of room in the header, the first row
// or the last row, and on a full device.
func TestWritersReturnWriteError(t *testing.T) {
	writers := map[string]func(w io.Writer) error{
		"WriteSingularValuesCSV": func(w io.Writer) error {
			return WriteSingularValuesCSV(w, []string{"a", "b"}, []float64{1, 2, 3}, []float64{4, 5, 6})
		},
		"WriteModesCSV": func(w io.Writer) error {
			return WriteModesCSV(w, []float64{0, 1, 2}, mat.NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}}))
		},
		"WritePGMHeatmap": func(w io.Writer) error {
			return WritePGMHeatmap(w, []float64{0, 1, 2, 3, 4, 5, 6, 7, 8}, 3, 3)
		},
	}
	for name, write := range writers {
		var full strings.Builder
		if err := write(&full); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := full.String()
		header := strings.Index(out, "\n") + 1
		if name == "WritePGMHeatmap" {
			header = len("P2\n3 3\n255\n")
		}
		for _, n := range []int{0, header + 1, len(out) - 1} {
			if err := write(&failingWriter{n: n}); !errors.Is(err, errDiskFull) {
				t.Errorf("%s failing after %d of %d bytes: err = %v, want %v", name, n, len(out), err, errDiskFull)
			}
		}
	}
	f, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("no /dev/full on this platform")
	}
	defer f.Close()
	for name, write := range writers {
		if err := write(f); err == nil {
			t.Errorf("%s to /dev/full returned nil", name)
		}
	}
}

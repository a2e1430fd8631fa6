package main

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"goparsvd/internal/mat"
	"goparsvd/internal/postproc"
	"goparsvd/internal/scaling"
)

// testSizes is smaller than -scale quick, so the race pass stays short.
var testSizes = sizes{
	burgersNx: 256, burgersNt: 60, burgersBatch: 20,
	climNLat: 7, climNLon: 12, climSnapshots: 60, climStepHours: 24,
	scalingRowsPerRank: 64, scalingSnapshots: 24, scalingRanks: []int{1, 2},
}

const testRanks = 2

// TestReproduceWritesEveryArtifact runs E1–E4 and checks that each
// artifact exists and parses, and that the report has one section per
// experiment.
func TestReproduceWritesEveryArtifact(t *testing.T) {
	dir := t.TempDir()
	report, err := reproduce(dir, "test", testSizes, testRanks)
	if err != nil {
		t.Fatal(err)
	}

	onDisk, err := os.ReadFile(filepath.Join(dir, "report.md"))
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != report {
		t.Error("report.md differs from the returned report")
	}
	last := -1
	for _, section := range []string{"## E1 — Figure 1(a)", "## E2 — Figure 1(b)", "## E3 — Figure 1(c)", "## E4 — Figure 2"} {
		i := strings.Index(report, section)
		if i < 0 || i < last {
			t.Errorf("report lacks section %q in order", section)
		}
		last = i
	}
	if n := strings.Count(report, "```"); n != 6 {
		t.Errorf("report has %d code fences, want 6 (two overlays and the measured series)", n)
	}

	// E1/E2: grid x plus serial and parallel modes, one row per grid point.
	for _, file := range []string{"fig1a_mode1.csv", "fig1b_mode2.csv"} {
		checkCSV(t, dir, file, "x,mode1,mode2", testSizes.burgersNx)
	}
	checkCSV(t, dir, "singular_values.csv", "mode,serial,parallel", 10)

	// E3: one row per measured rank count and per modeled power of two.
	checkCSV(t, dir, "fig1c_measured.csv", "ranks,seconds,efficiency,comm_bytes", len(testSizes.scalingRanks))
	checkCSV(t, dir, "fig1c_model.csv", "ranks,seconds,efficiency,comm_bytes", len(scaling.PowersOfTwo(16384)))

	// E4: heatmaps, spectrum and the decomposition itself.
	for _, file := range []string{"fig2_mode1.pgm", "fig2_mode2.pgm"} {
		checkPGM(t, dir, file, testSizes.climNLat, testSizes.climNLon)
	}
	checkCSV(t, dir, "fig2_singular_values.csv", "mode,parallel", 10)

	modes, singular, err := postproc.ReadModesGNC(filepath.Join(dir, "fig2_modes.gnc"))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := climateFit(testSizes, testRanks)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.EqualApprox(modes, res.Modes, 0) || !slices.Equal(singular, res.Singular) {
		t.Fatal("fig2_modes.gnc does not read back to the fit's modes and spectrum")
	}
}

// checkCSV checks a CSV's header and that it has rows data rows, each with
// the header's column count of numbers.
func checkCSV(t *testing.T, dir, file, header string, rows int) {
	t.Helper()
	lines := readLines(t, dir, file)
	if lines[0] != header {
		t.Errorf("%s: header %q, want %q", file, lines[0], header)
		return
	}
	if got := len(lines) - 1; got != rows {
		t.Errorf("%s: %d rows, want %d", file, got, rows)
	}
	cols := strings.Count(header, ",") + 1
	for n, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != cols {
			t.Errorf("%s row %d: %d fields, want %d", file, n+1, len(fields), cols)
			return
		}
		for _, f := range fields {
			if _, err := strconv.ParseFloat(f, 64); err != nil {
				t.Errorf("%s row %d: %v", file, n+1, err)
				return
			}
		}
	}
}

// checkPGM checks a plain (P2) graymap header of nlon×nlat pixels with
// maxval 255, then nlat rows of nlon gray levels in range.
func checkPGM(t *testing.T, dir, file string, nlat, nlon int) {
	t.Helper()
	lines := readLines(t, dir, file)
	if len(lines) != 3+nlat || lines[0] != "P2" || lines[1] != strconv.Itoa(nlon)+" "+strconv.Itoa(nlat) || lines[2] != "255" {
		t.Errorf("%s: bad header or row count (%d lines) for a %dx%d grid", file, len(lines), nlat, nlon)
		return
	}
	for n, line := range lines[3:] {
		fields := strings.Fields(line)
		if len(fields) != nlon {
			t.Errorf("%s row %d: %d pixels, want %d", file, n+1, len(fields), nlon)
			return
		}
		for _, f := range fields {
			if v, err := strconv.Atoi(f); err != nil || v < 0 || v > 255 {
				t.Errorf("%s row %d: gray level %q out of range", file, n+1, f)
				return
			}
		}
	}
}

func readLines(t *testing.T, dir, file string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

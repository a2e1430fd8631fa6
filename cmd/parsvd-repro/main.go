// Command parsvd-repro reproduces the paper's results in one run: E1/E2
// (Burgers modes, Figure 1a/b), E3 (weak scaling, Figure 1c) and E4
// (ERA5-analogue modes, Figure 2), at a configurable scale. It drives the
// mode-extraction experiments through the public parsvd facade and writes
// a markdown report with the paper-vs-measured summary of each experiment,
// plus every figure's data, into -outdir:
//
//	report.md                 the summary, with ASCII overlays of Figure 1(a,b)
//	fig1a_mode1.csv           x, serial mode 1, parallel mode 1 (sign-aligned)
//	fig1b_mode2.csv           x, serial mode 2, parallel mode 2 (sign-aligned)
//	singular_values.csv       serial and parallel Burgers spectra
//	fig1c_measured.csv        measured weak-scaling series (goroutine ranks)
//	fig1c_model.csv           modeled series (Theta-like constants)
//	fig2_mode1.pgm            mode 1 of the pressure field as an nlat×nlon heatmap
//	fig2_mode2.pgm            mode 2, likewise
//	fig2_singular_values.csv  the pressure field's spectrum
//	fig2_modes.gnc            its modes and spectrum (inspect with gncinfo)
//
// The README's "Running the paper benchmarks" section describes the
// experiments and how they differ from the paper's.
//
// Scales:
//
//	-scale quick  : seconds on a laptop (default); reduced sizes
//	-scale paper  : the paper's experiment sizes (16384×800 Burgers etc.)
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	parsvd "goparsvd"
	"goparsvd/datasets"
	"goparsvd/internal/scaling"
	"goparsvd/postproc"
)

type sizes struct {
	burgersNx, burgersNt, burgersBatch   int
	climNLat, climNLon, climSnapshots    int
	climStepHours                        float64
	scalingRowsPerRank, scalingSnapshots int
	scalingRanks                         []int
}

func sizesFor(scale string) (sizes, error) {
	switch scale {
	case "quick":
		return sizes{
			burgersNx: 2048, burgersNt: 200, burgersBatch: 50,
			climNLat: 19, climNLon: 36, climSnapshots: 730, climStepHours: 24,
			scalingRowsPerRank: 1024, scalingSnapshots: 64, scalingRanks: []int{1, 2, 4, 8},
		}, nil
	case "paper":
		return sizes{
			burgersNx: 16384, burgersNt: 800, burgersBatch: 100,
			climNLat: 73, climNLon: 144, climSnapshots: 11688, climStepHours: 6,
			scalingRowsPerRank: 1024, scalingSnapshots: 128, scalingRanks: []int{1, 2, 4, 8, 16, 32},
		}, nil
	default:
		return sizes{}, fmt.Errorf("unknown scale %q (want quick or paper)", scale)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("parsvd-repro: ")
	var (
		scale  = flag.String("scale", "quick", "experiment scale: quick or paper")
		outdir = flag.String("outdir", "out/repro", "output directory")
		ranks  = flag.Int("ranks", 4, "ranks for the mode-extraction experiments")
	)
	flag.Parse()

	sz, err := sizesFor(*scale)
	if err != nil {
		log.Fatal(err)
	}
	report, err := reproduce(*outdir, *scale, sz, *ranks)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(report)
	fmt.Printf("report and artifacts written to %s\n", *outdir)
}

// reproduce runs every experiment, writes its artifacts and report.md
// into outdir, and returns the report.
func reproduce(outdir, scale string, sz sizes, ranks int) (string, error) {
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return "", err
	}
	var report strings.Builder
	fmt.Fprintf(&report, "# goparsvd reproduction report (scale=%s)\n\n", scale)
	for _, experiment := range []func(*strings.Builder, string, sizes, int) error{
		runBurgers, runScaling, runClimate,
	} {
		if err := experiment(&report, outdir, sz, ranks); err != nil {
			return "", err
		}
	}
	err := writeFile(outdir, "report.md", func(w io.Writer) error {
		_, err := io.WriteString(w, report.String())
		return err
	})
	return report.String(), err
}

// writeFile creates outdir/name and fills it through write. The file is
// written through a buffer, so a failed write surfaces at the flush even
// when write does not return it.
func writeFile(outdir, name string, write func(io.Writer) error) error {
	f, err := os.Create(filepath.Join(outdir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// fit builds a facade SVD, drains src through it and returns the result.
func fit(src parsvd.Source, opts ...parsvd.Option) (*parsvd.Result, error) {
	svd, err := parsvd.New(opts...)
	if err != nil {
		return nil, err
	}
	defer svd.Close()
	return svd.Fit(context.Background(), src)
}

// runBurgers executes E1/E2: serial vs parallel streamed modes of the
// Burgers snapshot matrix, one report section per mode.
func runBurgers(report *strings.Builder, outdir string, sz sizes, ranks int) error {
	log.Printf("E1/E2: Burgers %dx%d, %d ranks", sz.burgersNx, sz.burgersNt, ranks)
	cfg := datasets.Burgers(sz.burgersNx, sz.burgersNt, 1000)
	a := cfg.Snapshots()
	base := []parsvd.Option{
		parsvd.WithModes(10), parsvd.WithForgetFactor(0.95),
	}

	t0 := time.Now()
	serial, err := fit(parsvd.FromMatrix(a, sz.burgersBatch), base...)
	if err != nil {
		return err
	}
	serialSecs := time.Since(t0).Seconds()

	t1 := time.Now()
	parallel, err := fit(parsvd.FromMatrix(a, sz.burgersBatch), append(base,
		parsvd.WithLowRank(),
		parsvd.WithBackend(parsvd.Parallel), parsvd.WithRanks(ranks))...)
	if err != nil {
		return err
	}
	parSecs := time.Since(t1).Seconds()

	n := min(len(serial.Singular), len(parallel.Singular))
	if err := writeFile(outdir, "singular_values.csv", func(w io.Writer) error {
		return postproc.WriteSingularValuesCSV(w, []string{"serial", "parallel"},
			serial.Singular[:n], parallel.Singular[:n])
	}); err != nil {
		return err
	}

	errs := postproc.CompareModes(serial.Modes, parallel.Modes)
	aligned := postproc.AlignSigns(serial.Modes, parallel.Modes)
	x := cfg.Grid()
	for m, fig := range []struct{ id, panel, file string }{
		{"E1", "1(a)", "fig1a_mode1.csv"},
		{"E2", "1(b)", "fig1b_mode2.csv"},
	} {
		s, p := serial.Modes.SliceCols(m, m+1), aligned.SliceCols(m, m+1)
		if err := writeFile(outdir, fig.file, func(w io.Writer) error {
			return postproc.WriteModesCSV(w, x, parsvd.HStack(s, p))
		}); err != nil {
			return err
		}
		fmt.Fprintf(report, "## %s — Figure %s: Burgers mode %d, serial vs parallel\n\n", fig.id, fig.panel, m+1)
		fmt.Fprintf(report, "- paper: serial and randomized+parallel modes overlap with low error magnitude\n")
		fmt.Fprintf(report, "- measured (%dx%d, %d ranks): mode-%d max|diff| %.2e\n",
			sz.burgersNx, sz.burgersNt, ranks, m+1, errs[m].MaxAbs)
		if m == 0 {
			fmt.Fprintf(report, "- wall-clock: serial %.2fs, parallel %.2fs\n", serialSecs, parSecs)
		}
		fmt.Fprintf(report, "- artifacts: %s, singular_values.csv\n\n```\n", fig.file)
		postproc.ASCIIPlot(report, fmt.Sprintf("Figure %s: mode %d, serial (*) vs parallel (+)", fig.panel, m+1),
			72, 16, []string{"serial", "parallel"}, s.Col(0), p.Col(0))
		fmt.Fprintf(report, "```\n\n")
	}
	return nil
}

// runScaling executes E3: the measured and modeled weak-scaling series.
func runScaling(report *strings.Builder, outdir string, sz sizes, _ int) error {
	log.Printf("E3: weak scaling, ranks %v", sz.scalingRanks)
	measured := scaling.RunMeasured(scaling.MeasuredConfig{
		RowsPerRank: sz.scalingRowsPerRank, Snapshots: sz.scalingSnapshots,
		K: 10, R1: 32, Ranks: sz.scalingRanks,
	})
	model := scaling.DefaultThetaModel()
	modeled := model.Series(scaling.PowersOfTwo(16384))
	for _, out := range []struct {
		file   string
		points []scaling.Point
	}{{"fig1c_measured.csv", measured}, {"fig1c_model.csv", modeled}} {
		if err := scaling.WriteCSV(filepath.Join(outdir, out.file), out.points); err != nil {
			return err
		}
	}

	fmt.Fprintf(report, "## E3 — Figure 1(c): weak scaling of the randomized+parallel SVD\n\n")
	fmt.Fprintf(report, "- paper: near-ideal weak scaling up to 256 Theta nodes\n")
	e256 := 0.0
	for _, p := range modeled {
		if p.Ranks == 256 {
			e256 = p.Efficiency
		}
	}
	fmt.Fprintf(report, "- modeled (Theta-like constants): efficiency %.3f at 256 ranks, %.3f at 16384\n",
		e256, modeled[len(modeled)-1].Efficiency)
	fmt.Fprintf(report, "- artifacts: fig1c_measured.csv, fig1c_model.csv\n")
	fmt.Fprintf(report, "- measured on this machine (goroutine ranks, CPU-oversubscribed beyond core count):\n\n")
	fmt.Fprintf(report, "```\n%s```\n\n", scaling.FormatSeries("measured", measured))
	return nil
}

// climateFit runs E4's fit: the ERA5-analogue pressure field streamed as
// generator batches through FromBatches into the Parallel backend. It
// returns the result and the generator, whose planted structures the
// modes are checked against.
func climateFit(sz sizes, ranks int) (*parsvd.Result, *datasets.ClimateGenerator, error) {
	cfg := datasets.ClimateConfig{
		NLat: sz.climNLat, NLon: sz.climNLon,
		Snapshots: sz.climSnapshots, StepHours: sz.climStepHours,
		Seed: 2013, NoiseAmp: 1.5,
	}
	gen := datasets.NewClimate(cfg)
	batch := max(sz.climSnapshots/10, 20)

	off := 0
	src := parsvd.FromBatches(func() (*parsvd.Matrix, error) {
		if off >= sz.climSnapshots {
			return nil, io.EOF
		}
		end := min(off+batch, sz.climSnapshots)
		b := gen.RowBlock(0, cfg.M(), off, end)
		off = end
		return b, nil
	})
	res, err := fit(src,
		parsvd.WithModes(10), parsvd.WithForgetFactor(0.95), parsvd.WithLowRank(),
		parsvd.WithBackend(parsvd.Parallel), parsvd.WithRanks(ranks))
	return res, gen, err
}

// runClimate executes E4: the ERA5-analogue coherent-structure
// extraction, with heatmaps of modes 1 and 2 and the decomposition itself
// as artifacts.
func runClimate(report *strings.Builder, outdir string, sz sizes, ranks int) error {
	log.Printf("E4: climate %dx%d, %d snapshots", sz.climNLat, sz.climNLon, sz.climSnapshots)
	res, gen, err := climateFit(sz, ranks)
	if err != nil {
		return err
	}
	for m := 0; m < 2; m++ {
		if err := writeFile(outdir, fmt.Sprintf("fig2_mode%d.pgm", m+1), func(w io.Writer) error {
			return postproc.WritePGMHeatmap(w, res.Modes.Col(m), sz.climNLat, sz.climNLon)
		}); err != nil {
			return err
		}
	}
	if err := writeFile(outdir, "fig2_singular_values.csv", func(w io.Writer) error {
		return postproc.WriteSingularValuesCSV(w, []string{"parallel"}, res.Singular)
	}); err != nil {
		return err
	}
	if err := postproc.WriteModesGNC(filepath.Join(outdir, "fig2_modes.gnc"), res.Modes, res.Singular,
		map[string]string{
			"source": "parsvd-repro",
			"workload": fmt.Sprintf("%dx%d grid, %d snapshots",
				sz.climNLat, sz.climNLon, sz.climSnapshots),
		}); err != nil {
		return err
	}

	cos1 := postproc.AbsCosine(res.Modes.Col(0), gen.MeanField())
	cos2 := postproc.AbsCosine(res.Modes.Col(1), gen.AnnualField())
	fmt.Fprintf(report, "## E4 — Figure 2: global pressure coherent structures\n\n")
	fmt.Fprintf(report, "- paper: modes 1 and 2 of ERA5 surface pressure, qualitative maps\n")
	fmt.Fprintf(report, "- measured (synthetic analogue with planted structure): mode 1 vs climatology cosine %.4f, mode 2 vs annual cycle cosine %.4f\n", cos1, cos2)
	fmt.Fprintf(report, "- artifacts: fig2_mode1.pgm, fig2_mode2.pgm, fig2_singular_values.csv, fig2_modes.gnc\n\n")
	return nil
}

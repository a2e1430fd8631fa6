// Command parsvd-repro runs the complete reproduction suite — E1/E2
// (Burgers modes, Figure 1a/b), E3 (weak scaling, Figure 1c) and E4
// (ERA5-analogue modes, Figure 2) — at a configurable scale and writes a
// single markdown report with the paper-vs-measured summary for each
// experiment. It is the one-command regeneration path behind
// EXPERIMENTS.md, and drives the mode-extraction experiments through the
// public parsvd facade.
//
// Scales:
//
//	-scale quick  : minutes on a laptop (default); reduced sizes
//	-scale paper  : the paper's experiment sizes (16384×800 Burgers etc.)
package main

import (
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
	burgersNx, burgersNt, burgersBatch int
	climNLat, climNLon, climSnapshots  int
	climStepHours                      float64
	scalingSnapshots                   int
	scalingRanks                       []int
}

func sizesFor(scale string) (sizes, error) {
	switch scale {
	case "quick":
		return sizes{
			burgersNx: 2048, burgersNt: 200, burgersBatch: 50,
			climNLat: 19, climNLon: 36, climSnapshots: 730, climStepHours: 24,
			scalingSnapshots: 64, scalingRanks: []int{1, 2, 4, 8},
		}, nil
	case "paper":
		return sizes{
			burgersNx: 16384, burgersNt: 800, burgersBatch: 100,
			climNLat: 73, climNLon: 144, climSnapshots: 11688, climStepHours: 6,
			scalingSnapshots: 128, scalingRanks: []int{1, 2, 4, 8, 16, 32},
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
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		log.Fatal(err)
	}

	var report strings.Builder
	fmt.Fprintf(&report, "# goparsvd reproduction report (scale=%s)\n\n", *scale)

	runBurgers(&report, sz, *ranks)
	runScaling(&report, sz)
	runClimate(&report, sz, *ranks)

	path := filepath.Join(*outdir, "report.md")
	if err := os.WriteFile(path, []byte(report.String()), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(report.String())
	fmt.Printf("report written to %s\n", path)
}

// mustFit builds a facade SVD, drains src through it and returns the
// result, treating any error as fatal (this is a batch experiment
// driver).
func mustFit(src parsvd.Source, opts ...parsvd.Option) *parsvd.Result {
	svd, err := parsvd.New(opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer svd.Close()
	res, err := svd.Fit(context.Background(), src)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// runBurgers executes E1/E2: serial vs parallel streamed modes of the
// Burgers snapshot matrix.
func runBurgers(report *strings.Builder, sz sizes, ranks int) {
	log.Printf("E1/E2: Burgers %dx%d, %d ranks", sz.burgersNx, sz.burgersNt, ranks)
	cfg := datasets.Burgers(sz.burgersNx, sz.burgersNt, 1000)
	a := cfg.Snapshots()
	base := []parsvd.Option{
		parsvd.WithModes(10), parsvd.WithForgetFactor(0.95),
	}

	t0 := time.Now()
	serial := mustFit(parsvd.FromMatrix(a, sz.burgersBatch), base...)
	serialSecs := time.Since(t0).Seconds()

	t1 := time.Now()
	parallel := mustFit(parsvd.FromMatrix(a, sz.burgersBatch), append(base,
		parsvd.WithLowRank(),
		parsvd.WithBackend(parsvd.Parallel), parsvd.WithRanks(ranks))...)
	parSecs := time.Since(t1).Seconds()

	errs := postproc.CompareModes(serial.Modes, parallel.Modes)
	fmt.Fprintf(report, "## E1/E2 — Figure 1(a,b): Burgers modes, serial vs parallel\n\n")
	fmt.Fprintf(report, "- paper: serial and randomized+parallel modes overlap with low error magnitude\n")
	fmt.Fprintf(report, "- measured (%dx%d, %d ranks): mode-1 max|diff| %.2e, mode-2 max|diff| %.2e\n",
		sz.burgersNx, sz.burgersNt, ranks, errs[0].MaxAbs, errs[1].MaxAbs)
	fmt.Fprintf(report, "- wall-clock: serial %.2fs, parallel %.2fs\n\n", serialSecs, parSecs)
}

// runScaling executes E3: the measured and modeled weak-scaling series.
func runScaling(report *strings.Builder, sz sizes) {
	log.Printf("E3: weak scaling, ranks %v", sz.scalingRanks)
	measured := scaling.RunMeasured(scaling.MeasuredConfig{
		RowsPerRank: 1024, Snapshots: sz.scalingSnapshots,
		K: 10, R1: 32, Ranks: sz.scalingRanks, Trials: 2,
	})
	model := scaling.DefaultThetaModel()
	modeled := model.Series(scaling.PowersOfTwo(16384))

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
	fmt.Fprintf(report, "- measured on this machine (goroutine ranks, CPU-oversubscribed beyond core count):\n\n")
	fmt.Fprintf(report, "```\n%s```\n\n", scaling.FormatSeries("measured", measured))
}

// runClimate executes E4: the ERA5-analogue coherent-structure
// extraction, streaming generator batches through FromBatches.
func runClimate(report *strings.Builder, sz sizes, ranks int) {
	log.Printf("E4: climate %dx%d, %d snapshots", sz.climNLat, sz.climNLon, sz.climSnapshots)
	cfg := datasets.ClimateConfig{
		NLat: sz.climNLat, NLon: sz.climNLon,
		Snapshots: sz.climSnapshots, StepHours: sz.climStepHours,
		Seed: 2013, NoiseAmp: 1.5,
	}
	gen := datasets.NewClimate(cfg)
	batch := maxInt(sz.climSnapshots/10, 20)

	off := 0
	src := parsvd.FromBatches(func() (*parsvd.Matrix, error) {
		if off >= sz.climSnapshots {
			return nil, io.EOF
		}
		end := minInt(off+batch, sz.climSnapshots)
		b := gen.RowBlock(0, cfg.M(), off, end)
		off = end
		return b, nil
	})
	res := mustFit(src,
		parsvd.WithModes(10), parsvd.WithForgetFactor(0.95), parsvd.WithLowRank(),
		parsvd.WithBackend(parsvd.Parallel), parsvd.WithRanks(ranks))

	cos1 := postproc.AbsCosine(res.Modes.Col(0), gen.MeanField())
	cos2 := postproc.AbsCosine(res.Modes.Col(1), gen.AnnualField())
	fmt.Fprintf(report, "## E4 — Figure 2: global pressure coherent structures\n\n")
	fmt.Fprintf(report, "- paper: modes 1 and 2 of ERA5 surface pressure, qualitative maps\n")
	fmt.Fprintf(report, "- measured (synthetic analogue with planted structure): mode 1 vs climatology cosine %.4f, mode 2 vs annual cycle cosine %.4f\n\n", cos1, cos2)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

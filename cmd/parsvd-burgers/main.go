// Command parsvd-burgers reproduces Figures 1(a) and 1(b) of the PyParSVD
// paper: coherent structures (SVD modes) of the viscous Burgers equation,
// computed with the serial streaming SVD and with the distributed
// randomized+parallel streaming SVD (both through the public parsvd
// facade), overlaid and differenced.
//
// The defaults match the paper's configuration: a 16384-point grid, 800
// snapshots on t ∈ [0, 2] at Re = 1000, 4 ranks, K = 10 modes, forget
// factor 0.95. The parallel run seeds through the streaming update's
// distributed QR rather than the paper's APMOS initialization, so the
// paper's r1 = 50 has no counterpart here.
//
// Outputs (in -outdir):
//
//	fig1a_mode1.csv   x, serial mode 1, parallel mode 1
//	fig1b_mode2.csv   x, serial mode 2, parallel mode 2
//	singular_values.csv
//
// plus ASCII overlays and an error table on stdout.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	parsvd "goparsvd"
	"goparsvd/datasets"
	"goparsvd/postproc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("parsvd-burgers: ")

	var (
		nx     = flag.Int("nx", 16384, "grid points (paper: 16384)")
		nt     = flag.Int("nt", 800, "snapshots (paper: 800)")
		re     = flag.Float64("re", 1000, "Reynolds number (paper: 1000)")
		ranks  = flag.Int("ranks", 4, "parallel ranks (paper: 4)")
		k      = flag.Int("k", 10, "retained modes K")
		batch  = flag.Int("batch", 100, "snapshots per streaming batch")
		ff     = flag.Float64("ff", 0.95, "forget factor (paper: 0.95)")
		lowRnk = flag.Bool("lowrank", true, "use randomized SVDs in the parallel path")
		outdir = flag.String("outdir", "out/burgers", "output directory")
	)
	flag.Parse()

	cfg := datasets.Burgers(*nx, *nt, *re)
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		log.Fatal(err)
	}

	log.Printf("workload: %d x %d Burgers snapshot matrix, Re=%g", *nx, *nt, *re)
	a := cfg.Snapshots()
	ctx := context.Background()

	// Serial streaming SVD over batches of columns.
	serial, err := parsvd.New(parsvd.WithModes(*k), parsvd.WithForgetFactor(*ff))
	if err != nil {
		log.Fatal(err)
	}
	tSerial := time.Now()
	sres, err := serial.Fit(ctx, parsvd.FromMatrix(a, *batch))
	if err != nil {
		log.Fatal(err)
	}
	serialSecs := time.Since(tSerial).Seconds()
	log.Printf("serial streaming SVD: %.2fs (%d iterations)", serialSecs, sres.Iterations)

	// Parallel streaming SVD: the facade partitions rows across ranks.
	parOpts := []parsvd.Option{
		parsvd.WithModes(*k), parsvd.WithForgetFactor(*ff),
		parsvd.WithBackend(parsvd.Parallel), parsvd.WithRanks(*ranks),
	}
	if *lowRnk {
		parOpts = append(parOpts, parsvd.WithLowRank())
	}
	par, err := parsvd.New(parOpts...)
	if err != nil {
		log.Fatal(err)
	}
	defer par.Close()
	tPar := time.Now()
	pres, err := par.Fit(ctx, parsvd.FromMatrix(a, *batch))
	if err != nil {
		log.Fatal(err)
	}
	parSecs := time.Since(tPar).Seconds()
	stats := par.Stats()
	log.Printf("parallel streaming SVD (%d ranks): %.2fs, %d messages, %.1f MB moved",
		*ranks, parSecs, stats.Messages, float64(stats.Bytes)/1e6)

	// Align and compare (Figure 1a/1b content).
	sm := sres.Modes
	aligned := postproc.AlignSigns(sm, pres.Modes)
	errs := postproc.CompareModes(sm, pres.Modes)
	fmt.Println()
	fmt.Println("serial vs parallel mode errors (sign-aligned):")
	fmt.Printf("%5s  %12s  %12s  %10s\n", "mode", "L2", "max|diff|", "cosine")
	for _, e := range errs {
		fmt.Printf("%5d  %12.4e  %12.4e  %10.7f\n", e.Mode+1, e.L2, e.MaxAbs, e.Cosine)
	}

	fmt.Println()
	fmt.Println("singular values:")
	if err := writeCSVs(*outdir, cfg, sm, aligned, sres.Singular, pres.Singular); err != nil {
		log.Fatal(err)
	}
	postproc.SingularValueReport(os.Stdout, sres.Singular)

	plotMode(sm, aligned, 0, "Figure 1(a): mode 1, serial (*) vs parallel (+)")
	plotMode(sm, aligned, 1, "Figure 1(b): mode 2, serial (*) vs parallel (+)")

	fmt.Printf("\nwall-clock: serial %.2fs, parallel %.2fs\n", serialSecs, parSecs)
	fmt.Printf("artifacts written to %s\n", *outdir)
}

func plotMode(serial, parallel *parsvd.Matrix, mode int, title string) {
	if mode >= serial.Cols() {
		return
	}
	fmt.Println()
	postproc.ASCIIPlot(os.Stdout, title, 72, 16,
		[]string{"serial", "parallel"}, serial.Col(mode), parallel.Col(mode))
}

func writeCSVs(outdir string, cfg datasets.BurgersConfig, serial, parallel *parsvd.Matrix, sVals, pVals []float64) error {
	x := cfg.Grid()
	for _, item := range []struct {
		file string
		mode int
	}{
		{"fig1a_mode1.csv", 0},
		{"fig1b_mode2.csv", 1},
	} {
		if item.mode >= serial.Cols() {
			continue
		}
		f, err := os.Create(filepath.Join(outdir, item.file))
		if err != nil {
			return err
		}
		both := parsvd.HStack(serial.SliceCols(item.mode, item.mode+1),
			parallel.SliceCols(item.mode, item.mode+1))
		if err := postproc.WriteModesCSV(f, x, both); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	f, err := os.Create(filepath.Join(outdir, "singular_values.csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	n := minInt(len(sVals), len(pVals))
	return postproc.WriteSingularValuesCSV(f, []string{"serial", "parallel"},
		sVals[:n], pVals[:n])
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

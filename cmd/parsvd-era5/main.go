// Command parsvd-era5 reproduces Figure 2 of the PyParSVD paper: coherent
// structures of a global surface-pressure data set extracted with the
// parallel streaming SVD through the public parsvd facade, including the
// file-backed I/O stage (the snapshot matrix is streamed back out of a
// self-describing container batch by batch).
//
// The real ERA5 reanalysis is a gated download, so the data set is the
// synthetic equivalent from goparsvd/datasets, whose leading coherent
// structures are known by construction (see internal/climate). That turns
// Figure 2 from a visual result into a checkable one: the extracted mode 1
// must match the climatological mean structure and mode 2 the annual-cycle
// pattern, and the command reports both cosine similarities.
//
// Pipeline: generate → write GNC file (time×lat×lon) → stream the file
// through the Parallel backend via parsvd.FromNetCDF → PGM heatmaps + CSV.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	parsvd "goparsvd"
	"goparsvd/datasets"
	"goparsvd/gnc"
	"goparsvd/postproc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("parsvd-era5: ")

	var (
		nlat      = flag.Int("nlat", 37, "latitude points (ERA5 at 2.5°: 73)")
		nlon      = flag.Int("nlon", 72, "longitude points (ERA5 at 2.5°: 144)")
		years     = flag.Int("years", 8, "years of data (paper: 2013-2020 = 8)")
		stepHours = flag.Float64("step-hours", 24, "snapshot cadence in hours (paper: 6)")
		ranks     = flag.Int("ranks", 4, "parallel ranks")
		k         = flag.Int("k", 10, "retained modes K")
		batch     = flag.Int("batch", 146, "snapshots per streaming batch")
		ff        = flag.Float64("ff", 0.95, "forget factor")
		lowRank   = flag.Bool("lowrank", true, "use randomized SVDs")
		outdir    = flag.String("outdir", "out/era5", "output directory")
		dataFile  = flag.String("data", "", "GNC file to use (default <outdir>/pressure.gnc; regenerated if absent)")
	)
	flag.Parse()

	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		log.Fatal(err)
	}
	snapshots := int(float64(*years) * 365 * 24 / *stepHours)
	cfg := datasets.ClimateConfig{
		NLat: *nlat, NLon: *nlon,
		Snapshots: snapshots, StepHours: *stepHours,
		Seed: 2013, NoiseAmp: 1.5,
	}
	gen := datasets.NewClimate(cfg)

	path := *dataFile
	if path == "" {
		path = filepath.Join(*outdir, "pressure.gnc")
	}
	if _, err := os.Stat(path); err != nil {
		log.Printf("generating %d snapshots on a %dx%d grid → %s", snapshots, *nlat, *nlon, path)
		if err := writeDataset(path, gen); err != nil {
			log.Fatal(err)
		}
	} else {
		log.Printf("reusing existing data set %s", path)
	}

	// Parallel phase: the facade streams the file variable through the
	// distributed SVD, its TSQR over the ranks' row blocks.
	opts := []parsvd.Option{
		parsvd.WithModes(*k), parsvd.WithForgetFactor(*ff),
		parsvd.WithBackend(parsvd.Parallel), parsvd.WithRanks(*ranks),
	}
	if *lowRank {
		opts = append(opts, parsvd.WithLowRank())
	}
	svd, err := parsvd.New(opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer svd.Close()

	src, err := parsvd.FromNetCDF(path, "pressure", *batch)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	res, err := svd.Fit(context.Background(), src)
	if err != nil {
		log.Fatal(err)
	}
	stats := svd.Stats()
	log.Printf("parallel streaming SVD (%d ranks): %.2fs, %d messages, %.1f MB moved",
		*ranks, time.Since(start).Seconds(), stats.Messages, float64(stats.Bytes)/1e6)

	modes, vals := res.Modes, res.Singular

	// Validation against the generator's known structures.
	fmt.Println()
	fmt.Println("mode validation (|cosine| against known generator structure):")
	cos1 := postproc.AbsCosine(modes.Col(0), gen.MeanField())
	cos2 := postproc.AbsCosine(modes.Col(1), gen.AnnualField())
	fmt.Printf("  mode 1 vs climatological mean : %.6f\n", cos1)
	fmt.Printf("  mode 2 vs annual-cycle pattern: %.6f\n", cos2)

	fmt.Println()
	postproc.SingularValueReport(os.Stdout, vals)

	// Figure 2 artifacts: heatmaps of modes 1 and 2.
	for m := 0; m < 2 && m < modes.Cols(); m++ {
		name := filepath.Join(*outdir, fmt.Sprintf("fig2_mode%d.pgm", m+1))
		f, err := os.Create(name)
		if err != nil {
			log.Fatal(err)
		}
		if err := postproc.WritePGMHeatmap(f, modes.Col(m), *nlat, *nlon); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}
	if err := writeValsCSV(filepath.Join(*outdir, "fig2_singular_values.csv"), vals); err != nil {
		log.Fatal(err)
	}
	// Persist the decomposition itself in the same container format as the
	// input, so it can be inspected with gncinfo or reloaded later.
	if err := postproc.WriteModesGNC(filepath.Join(*outdir, "fig2_modes.gnc"),
		modes, vals, map[string]string{
			"source":   "parsvd-era5",
			"workload": fmt.Sprintf("%dx%d grid, %d snapshots", *nlat, *nlon, snapshots),
		}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nartifacts written to %s\n", *outdir)
}

// writeDataset generates the synthetic pressure field and writes it as a
// GNC file with time, lat, lon dimensions and coordinate variables.
func writeDataset(path string, gen *datasets.ClimateGenerator) error {
	cfg := gen.Config()
	w, err := gnc.Create(path)
	if err != nil {
		return err
	}
	steps := []func() error{
		func() error { return w.DefineDim("time", int64(cfg.Snapshots)) },
		func() error { return w.DefineDim("lat", int64(cfg.NLat)) },
		func() error { return w.DefineDim("lon", int64(cfg.NLon)) },
		func() error {
			// Single precision, like the real ERA5 archive: halves the
			// file and exercises the widening read path.
			return w.DefineVarTyped("pressure", gnc.Float32, []string{"time", "lat", "lon"},
				map[string]string{"units": "hPa", "long_name": "synthetic surface pressure"})
		},
		func() error { return w.DefineVar("lat", []string{"lat"}, map[string]string{"units": "degrees_north"}) },
		func() error { return w.DefineVar("lon", []string{"lon"}, map[string]string{"units": "degrees_east"}) },
		func() error { return w.SetGlobalAttr("source", "goparsvd datasets synthetic ERA5 analogue") },
		func() error { return w.EndDef() },
		func() error { return w.WriteVar("lat", gen.Lat()) },
		func() error { return w.WriteVar("lon", gen.Lon()) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			w.Close()
			return err
		}
	}
	// Write snapshot planes in parallel chunks.
	workers := 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	chunk := (cfg.Snapshots + workers - 1) / workers
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			s0 := wk * chunk
			s1 := s0 + chunk
			if s1 > cfg.Snapshots {
				s1 = cfg.Snapshots
			}
			for s := s0; s < s1; s++ {
				if err := w.WriteSlab("pressure",
					[]int64{int64(s), 0, 0},
					[]int64{1, int64(cfg.NLat), int64(cfg.NLon)},
					gen.Snapshot(s)); err != nil {
					errs[wk] = err
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

func writeValsCSV(path string, vals []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return postproc.WriteSingularValuesCSV(f, []string{"parallel"}, vals)
}

package parsvd_test

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"goparsvd/internal/burgers"
	"goparsvd/internal/climate"
	"goparsvd/internal/core"
	"goparsvd/internal/linalg"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/ncio"
	"goparsvd/internal/postproc"
)

// TestIntegrationBurgersSerialVsParallel is the repository-level statement
// of the paper's Figure 1(a,b) claim: for the Burgers workload, the serial
// streaming SVD and the distributed randomized streaming SVD agree mode by
// mode to small absolute error.
func TestIntegrationBurgersSerialVsParallel(t *testing.T) {
	cfg := burgers.Config{L: 1, Re: 1000, Nx: 1024, Nt: 120, TFinal: 2}
	const (
		ranks = 4
		k     = 6
		batch = 30
		ff    = 0.95
	)

	serial := runSerialBurgers(cfg, k, batch, ff)
	parallel := runParallelBurgers(cfg, ranks, k, batch, ff, true)

	errs := postproc.CompareModes(serial.Modes(), parallel)
	for _, e := range errs[:2] { // the two modes the paper plots
		if e.MaxAbs > 1e-4 {
			t.Errorf("mode %d: max|serial-parallel| = %.3e, want < 1e-4", e.Mode+1, e.MaxAbs)
		}
		if e.Cosine < 0.999999 {
			t.Errorf("mode %d: cosine %.8f, want ~1", e.Mode+1, e.Cosine)
		}
	}
}

// TestIntegrationStreamedMatchesOneShot checks the ff = 1 contract end to
// end on the Burgers workload: streaming must reproduce the one-shot
// truncated SVD of the full snapshot matrix.
func TestIntegrationStreamedMatchesOneShot(t *testing.T) {
	// K is deliberately generous relative to the checked modes: streaming
	// truncates to K after every batch, so the retained subspace must
	// cover the spectrum's tail for the ff = 1 equivalence to be tight.
	cfg := burgers.Config{L: 1, Re: 1000, Nx: 768, Nt: 90, TFinal: 2}
	serial := runSerialBurgers(cfg, 15, 30, 1.0)
	u, s, _ := linalg.SVD(cfg.Snapshots())
	for i := 0; i < 3; i++ {
		rel := math.Abs(serial.SingularValues()[i]-s[i]) / s[0]
		// The floor is set by the discarded σ_{K+1:} tail, not roundoff:
		// with K = 15 on this spectrum it sits just under 1e-5.
		if rel > 1e-5 {
			t.Errorf("sigma_%d: streamed %.6e vs one-shot %.6e (rel %.2e)",
				i+1, serial.SingularValues()[i], s[i], rel)
		}
	}
	errs := postproc.CompareModes(u.SliceCols(0, 3), serial.Modes().SliceCols(0, 3))
	for _, e := range errs {
		if e.Cosine < 0.99999 {
			t.Errorf("mode %d cosine %.7f", e.Mode+1, e.Cosine)
		}
	}
}

// TestIntegrationERA5Pipeline runs the full Figure-2 pipeline — generate,
// write GNC, parallel hyperslab reads, distributed streaming SVD — and
// validates the extracted structures against the planted ones.
func TestIntegrationERA5Pipeline(t *testing.T) {
	cfg := climate.Config{
		NLat: 19, NLon: 36, Snapshots: 365, StepHours: 24,
		Seed: 2013, NoiseAmp: 1.5,
	}
	gen := climate.New(cfg)
	path := filepath.Join(t.TempDir(), "pressure.gnc")

	// Write the data set.
	w, err := ncio.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []func() error{
		func() error { return w.DefineDim("time", int64(cfg.Snapshots)) },
		func() error { return w.DefineDim("lat", int64(cfg.NLat)) },
		func() error { return w.DefineDim("lon", int64(cfg.NLon)) },
		func() error { return w.DefineVar("pressure", []string{"time", "lat", "lon"}, nil) },
		func() error { return w.EndDef() },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < cfg.Snapshots; s++ {
		if err := w.WriteSlab("pressure", []int64{int64(s), 0, 0},
			[]int64{1, int64(cfg.NLat), int64(cfg.NLon)}, gen.Snapshot(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Parallel analysis phase.
	const ranks = 3
	latParts := partitionN(cfg.NLat, ranks)
	var mu sync.Mutex
	var modes *mat.Dense
	mpi.MustRun(ranks, func(c *mpi.Comm) {
		f, err := ncio.Open(path)
		if err != nil {
			panic(err)
		}
		defer f.Close()
		la0, la1 := latParts[c.Rank()][0], latParts[c.Rank()][1]
		rows := (la1 - la0) * cfg.NLon
		eng := core.NewParallel(c, core.Options{K: 5, ForgetFactor: 0.95, LowRank: true})
		const batch = 73
		for off := 0; off < cfg.Snapshots; off += batch {
			end := off + batch
			if end > cfg.Snapshots {
				end = cfg.Snapshots
			}
			raw, err := f.ReadSlab("pressure",
				[]int64{int64(off), int64(la0), 0},
				[]int64{int64(end - off), int64(la1 - la0), int64(cfg.NLon)})
			if err != nil {
				panic(err)
			}
			block := mat.New(rows, end-off)
			for ts := 0; ts < end-off; ts++ {
				for r := 0; r < rows; r++ {
					block.Set(r, ts, raw[ts*rows+r])
				}
			}
			if off == 0 {
				must(eng.Initialize(block))
			} else {
				must(eng.IncorporateData(block))
			}
		}
		gathered, err := eng.GatherModeRows()
		must(err)
		if c.Rank() == 0 {
			mu.Lock()
			modes = core.ModeMatrix(gathered...)
			mu.Unlock()
		}
	})

	if cos := absCos(modes.Col(0), gen.MeanField()); cos < 0.999 {
		t.Errorf("mode 1 vs climatology cosine %.5f, want > 0.999", cos)
	}
	if cos := absCos(modes.Col(1), gen.AnnualField()); cos < 0.95 {
		t.Errorf("mode 2 vs annual cycle cosine %.5f, want > 0.95", cos)
	}
}

// TestIntegrationArtifactsWritable exercises the postprocessing export path
// the cmd binaries rely on (CSV + PGM round trip to disk).
func TestIntegrationArtifactsWritable(t *testing.T) {
	dir := t.TempDir()
	cfg := burgers.Config{L: 1, Re: 1000, Nx: 256, Nt: 40, TFinal: 2}
	eng := runSerialBurgers(cfg, 3, 20, 1.0)

	csvPath := filepath.Join(dir, "modes.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := postproc.WriteModesCSV(f, cfg.Grid(), eng.Modes()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	info, err := os.Stat(csvPath)
	if err != nil || info.Size() == 0 {
		t.Fatalf("modes CSV missing or empty: %v", err)
	}

	pgmPath := filepath.Join(dir, "field.pgm")
	g, err := os.Create(pgmPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := postproc.WritePGMHeatmap(g, eng.Modes().Col(0), 16, 16); err != nil {
		t.Fatal(err)
	}
	g.Close()
	if info, err := os.Stat(pgmPath); err != nil || info.Size() == 0 {
		t.Fatal("PGM missing or empty")
	}
}

// Package goparsvd_test holds the repository-level benchmark harness: one
// benchmark per paper artifact (Figures 1a, 1b, 1c and 2) plus the
// ablation benches A1–A5. Each benchmark runs a
// reduced-scale version of the corresponding experiment — the full-scale
// regeneration paths are the cmd/ binaries — and reports the experiment's
// quality metric (mode error, efficiency, cosine) alongside time via
// b.ReportMetric, so a bench run doubles as a regression check on result
// quality, not just speed.
package parsvd_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"goparsvd/internal/apmos"
	"goparsvd/internal/burgers"
	"goparsvd/internal/climate"
	"goparsvd/internal/core"
	"goparsvd/internal/linalg"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/postproc"
	"goparsvd/internal/rla"
	"goparsvd/internal/stream"
	"goparsvd/internal/tsqr"
)

// benchBurgers is the reduced-scale Figure 1(a,b) workload shared by the
// E1/E2 benches: 2048×160, 4 ranks.
var benchBurgers = burgers.Config{L: 1, Re: 1000, Nx: 2048, Nt: 160, TFinal: 2}

const (
	benchRanks = 4
	benchK     = 10
	benchBatch = 40
)

// runSerialBurgers streams the benchmark workload through the serial
// engine.
func runSerialBurgers(cfg burgers.Config, k, batch int, ff float64) *stream.SVD {
	eng := stream.New(stream.Options{K: k, FF: ff})
	for off := 0; off < cfg.Nt; off += batch {
		end := off + batch
		if end > cfg.Nt {
			end = cfg.Nt
		}
		b := cfg.SnapshotsCols(off, end)
		if off == 0 {
			must(eng.Initialize(b))
		} else {
			must(eng.IncorporateData(b))
		}
	}
	return eng
}

// runParallelBurgers streams the benchmark workload through the parallel
// engine and returns the gathered global modes.
func runParallelBurgers(cfg burgers.Config, ranks, k, batch int, ff float64, lowRank bool) *mat.Dense {
	parts := cfg.Partition(ranks)
	var mu sync.Mutex
	var modes *mat.Dense
	mpi.MustRun(ranks, func(c *mpi.Comm) {
		r0, r1 := parts[c.Rank()][0], parts[c.Rank()][1]
		eng := core.NewParallel(c, core.Options{K: k, ForgetFactor: ff, LowRank: lowRank})
		for off := 0; off < cfg.Nt; off += batch {
			end := off + batch
			if end > cfg.Nt {
				end = cfg.Nt
			}
			b := cfg.Block(r0, r1, off, end)
			if off == 0 {
				must(eng.Initialize(b))
			} else {
				must(eng.IncorporateData(b))
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
	return modes
}

// BenchmarkFig1aBurgersMode1 regenerates the Figure 1(a) comparison: the
// serial and distributed pipelines run end to end and the reported metric
// is the sign-aligned max|diff| of mode 1 (the quantity the figure plots).
func BenchmarkFig1aBurgersMode1(b *testing.B) {
	b.ReportAllocs()
	var maxDiff float64
	for i := 0; i < b.N; i++ {
		serial := runSerialBurgers(benchBurgers, benchK, benchBatch, 0.95)
		parallel := runParallelBurgers(benchBurgers, benchRanks, benchK, benchBatch, 0.95, true)
		errs := postproc.CompareModes(serial.Modes(), parallel)
		maxDiff = errs[0].MaxAbs
	}
	b.ReportMetric(maxDiff, "mode1-maxdiff")
}

// BenchmarkFig1bBurgersMode2 is Figure 1(b): mode 2 of the same runs.
func BenchmarkFig1bBurgersMode2(b *testing.B) {
	b.ReportAllocs()
	var maxDiff float64
	for i := 0; i < b.N; i++ {
		serial := runSerialBurgers(benchBurgers, benchK, benchBatch, 0.95)
		parallel := runParallelBurgers(benchBurgers, benchRanks, benchK, benchBatch, 0.95, true)
		errs := postproc.CompareModes(serial.Modes(), parallel)
		maxDiff = errs[1].MaxAbs
	}
	b.ReportMetric(maxDiff, "mode2-maxdiff")
}

// BenchmarkFig1cWeakScaling measures the randomized+parallel SVD (no
// streaming, per the paper's protocol) at fixed rows per rank for
// increasing rank counts; the reported metric is weak-scaling efficiency
// versus the 1-rank bench of the same family.
func BenchmarkFig1cWeakScaling(b *testing.B) {
	b.ReportAllocs()
	baseline := map[int]float64{}
	for _, ranks := range []int{1, 2, 4, 8} {
		ranks := ranks
		b.Run(benchName("ranks", ranks), func(b *testing.B) {
			b.ReportAllocs()
			cfg := burgers.Config{L: 1, Re: 1000, Nx: 256 * ranks, Nt: 48, TFinal: 2}
			parts := cfg.Partition(ranks)
			blocks := make([]*mat.Dense, ranks) // each rank's Aᵢᵀ, as APMOS takes it
			for r := 0; r < ranks; r++ {
				blocks[r] = cfg.SnapshotsRows(parts[r][0], parts[r][1]).T()
			}
			opts := apmos.Options{
				K: benchK, R1: 16, R2: benchK, LowRank: true,
				RLA: rla.Options{Oversample: 10, PowerIters: 1, Seed: 7},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mpi.MustRun(ranks, func(c *mpi.Comm) {
					_, _, err := apmos.Decompose(c, blocks[c.Rank()], opts)
					must(err)
				})
			}
			b.StopTimer()
			perOp := b.Elapsed().Seconds() / float64(b.N)
			if ranks == 1 {
				baseline[1] = perOp
			}
			if t1, ok := baseline[1]; ok && perOp > 0 {
				b.ReportMetric(t1/perOp, "weak-efficiency")
			}
		})
	}
}

// BenchmarkFig2ERA5Modes regenerates the Figure 2 extraction on the
// synthetic ERA5 analogue; the metric is the cosine of extracted mode 1
// against the planted climatology (1.0 = perfect).
func BenchmarkFig2ERA5Modes(b *testing.B) {
	b.ReportAllocs()
	cfg := climate.Config{
		NLat: 19, NLon: 36, Snapshots: 240, StepHours: 24,
		Seed: 2013, NoiseAmp: 1.5,
	}
	gen := climate.New(cfg)
	parts := partitionN(cfg.M(), benchRanks)
	blocks := make([][]*mat.Dense, benchRanks)
	const batch = 60
	for r := 0; r < benchRanks; r++ {
		for off := 0; off < cfg.Snapshots; off += batch {
			blocks[r] = append(blocks[r], gen.RowBlock(parts[r][0], parts[r][1], off, off+batch))
		}
	}
	b.ResetTimer()
	var cos float64
	for i := 0; i < b.N; i++ {
		var mu sync.Mutex
		var modes *mat.Dense
		mpi.MustRun(benchRanks, func(c *mpi.Comm) {
			eng := core.NewParallel(c, core.Options{K: 6, ForgetFactor: 0.95, LowRank: true})
			for bi, blk := range blocks[c.Rank()] {
				if bi == 0 {
					must(eng.Initialize(blk))
				} else {
					must(eng.IncorporateData(blk))
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
		cos = absCos(modes.Col(0), gen.MeanField())
	}
	b.ReportMetric(cos, "mode1-cosine")
}

// BenchmarkAblationForgetFactor (A1) sweeps Algorithm 1's ff and reports
// the deviation of the streamed σ₁ from the one-shot σ₁.
func BenchmarkAblationForgetFactor(b *testing.B) {
	b.ReportAllocs()
	cfg := burgers.Config{L: 1, Re: 1000, Nx: 1024, Nt: 120, TFinal: 2}
	_, sBatch, _ := linalg.SVD(cfg.Snapshots())
	for _, ff := range []float64{0.80, 0.90, 0.95, 1.00} {
		ff := ff
		b.Run(benchFloat("ff", ff), func(b *testing.B) {
			b.ReportAllocs()
			var dev float64
			for i := 0; i < b.N; i++ {
				eng := runSerialBurgers(cfg, benchK, 30, ff)
				dev = abs(eng.SingularValues()[0]-sBatch[0]) / sBatch[0]
			}
			b.ReportMetric(dev, "sigma1-rel-dev")
		})
	}
}

// BenchmarkAblationTruncation (A2) sweeps the APMOS r1 gather truncation
// and reports both time and the σ₁ deviation from the exact value — the
// paper's stated accuracy/communication trade-off.
func BenchmarkAblationTruncation(b *testing.B) {
	b.ReportAllocs()
	cfg := burgers.Config{L: 1, Re: 1000, Nx: 2048, Nt: 96, TFinal: 2}
	parts := cfg.Partition(benchRanks)
	blocks := make([]*mat.Dense, benchRanks) // each rank's Aᵢᵀ, as APMOS takes it
	for r := 0; r < benchRanks; r++ {
		blocks[r] = cfg.SnapshotsRows(parts[r][0], parts[r][1]).T()
	}
	_, sExact, _ := linalg.SVD(cfg.Snapshots())
	for _, r1 := range []int{4, 8, 16, 48, 96} {
		r1 := r1
		b.Run(benchName("r1", r1), func(b *testing.B) {
			b.ReportAllocs()
			var dev float64
			for i := 0; i < b.N; i++ {
				var mu sync.Mutex
				var s []float64
				mpi.MustRun(benchRanks, func(c *mpi.Comm) {
					_, sv, err := apmos.Decompose(c, blocks[c.Rank()],
						apmos.Options{K: 5, R1: r1, R2: 5})
					must(err)
					if c.Rank() == 0 {
						mu.Lock()
						s = sv
						mu.Unlock()
					}
				})
				dev = abs(s[0]-sExact[0]) / sExact[0]
			}
			b.ReportMetric(dev, "sigma1-rel-dev")
		})
	}
}

// BenchmarkAblationRandomized (A3) compares the deterministic and
// randomized SVD inside the same pipeline (paper §3.3's acceleration).
func BenchmarkAblationRandomized(b *testing.B) {
	b.ReportAllocs()
	cfg := burgers.Config{L: 1, Re: 1000, Nx: 2048, Nt: 96, TFinal: 2}
	a := cfg.Snapshots()
	b.Run("deterministic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linalg.SVDTruncated(a, benchK)
		}
	})
	b.Run("randomized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rla.RandomizedSVDWith(nil, a, benchK, rla.DefaultOptions())
		}
	})
}

// BenchmarkAblationTSQR (A4) times the paper's gather-at-root distributed
// QR over eight ranks.
func BenchmarkAblationTSQR(b *testing.B) {
	b.ReportAllocs()
	cfg := burgers.Config{L: 1, Re: 1000, Nx: 4096, Nt: 48, TFinal: 2}
	parts := cfg.Partition(8)
	blocks := make([]*mat.Dense, 8)
	for r := 0; r < 8; r++ {
		blocks[r] = cfg.SnapshotsRows(parts[r][0], parts[r][1])
	}
	b.Run("gather", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mpi.MustRun(8, func(c *mpi.Comm) {
				tsqr.GatherQRWith(nil, c, blocks[c.Rank()])
			})
		}
	})
}

// BenchmarkAblationBatchSize (A5) sweeps the streaming batch size at fixed
// total snapshot count: smaller batches mean more, cheaper updates.
func BenchmarkAblationBatchSize(b *testing.B) {
	b.ReportAllocs()
	cfg := burgers.Config{L: 1, Re: 1000, Nx: 2048, Nt: 120, TFinal: 2}
	for _, batch := range []int{20, 40, 60, 120} {
		batch := batch
		b.Run(benchName("batch", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runSerialBurgers(cfg, benchK, batch, 0.95)
			}
		})
	}
}

// BenchmarkStreamingUpdate isolates one IncorporateData call — the
// steady-state cost of the online algorithm (Algorithm 1 steps 1–5).
func BenchmarkStreamingUpdate(b *testing.B) {
	b.ReportAllocs()
	cfg := burgers.Config{L: 1, Re: 1000, Nx: 4096, Nt: 80, TFinal: 2}
	first := cfg.SnapshotsCols(0, 40)
	next := cfg.SnapshotsCols(40, 80)
	s := stream.New(stream.Options{K: benchK, FF: 0.95})
	must(s.Initialize(first))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(s.IncorporateData(next))
	}
}

// must panics with a failed call's error; under mpi.MustRun that aborts
// the world and fails the run.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func partitionN(n, p int) [][2]int {
	out := make([][2]int, p)
	base, rem := n/p, n%p
	off := 0
	for r := 0; r < p; r++ {
		s := base
		if r < rem {
			s++
		}
		out[r] = [2]int{off, off + s}
		off += s
	}
	return out
}

func absCos(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return math.Abs(dot) / math.Sqrt(na*nb)
}

func abs(x float64) float64 { return math.Abs(x) }

func benchName(key string, v int) string { return fmt.Sprintf("%s=%d", key, v) }

func benchFloat(key string, v float64) string { return fmt.Sprintf("%s=%.2f", key, v) }

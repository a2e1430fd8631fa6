// Package scaling reproduces the weak-scaling assessment of the paper's
// Figure 1(c): the parallelized + randomized SVD (APMOS initialization, no
// streaming — exactly the configuration the paper states it timed) with a
// fixed number of grid points per rank and an increasing rank count.
//
// Two instruments are provided, because this reproduction substitutes
// goroutines on one machine for MPI ranks on 256 Theta nodes:
//
//   - RunMeasured times real executions of the distributed pipeline with
//     goroutine ranks. It produces honest wall-clock numbers, but beyond
//     the local core count the ranks time-share the CPU, so measured weak
//     "scaling" on a laptop flattens compute and only exposes algorithmic
//     overheads.
//
//   - Model is an analytic cost model of the same pipeline — per-rank
//     compute, the gather incast at the root, the root's randomized SVD
//     of the W matrix, and the log-depth broadcast — with machine
//     constants describing a Theta-like system (KNL-era per-core flop
//     rate, Aries-like latency/bandwidth). Evaluating it from 1 to 16384
//     ranks (256 nodes × 64 ranks) regenerates the shape of Figure 1(c):
//     near-ideal weak scaling with a mild upturn at the largest counts.
//
// Both report the same Point rows, so the harness prints them side by side.
package scaling

import (
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"goparsvd/internal/apmos"
	"goparsvd/internal/burgers"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/rla"
)

// Point is one row of a weak-scaling series.
type Point struct {
	Ranks int
	// Seconds is the wall-clock (measured) or modeled execution time.
	Seconds float64
	// Efficiency is T(ranks₀)/T(ranks), the weak-scaling efficiency
	// relative to the first point in the series (1.0 = ideal).
	Efficiency float64
	// CommBytes is the total communication volume (measured series only).
	CommBytes int64
}

// MeasuredConfig parameterizes a measured weak-scaling run.
type MeasuredConfig struct {
	// RowsPerRank is the fixed local problem size (paper: 1024 grid
	// points per rank).
	RowsPerRank int
	// Snapshots is the global column count N (paper: 800).
	Snapshots int
	// K is the mode count for the randomized SVD.
	K int
	// R1 is the APMOS gather truncation.
	R1 int
	// Ranks lists the rank counts to measure.
	Ranks []int
	// Trials repeats each measurement and keeps the minimum (the standard
	// way to strip scheduler noise from in-process timings).
	Trials int
}

func (c MeasuredConfig) validate() {
	if c.RowsPerRank < 1 || c.Snapshots < 1 || c.K < 1 || len(c.Ranks) == 0 || c.Trials < 1 {
		panic(fmt.Sprintf("scaling: invalid config %+v", c))
	}
}

// RunMeasured executes the randomized+parallel SVD for each rank count and
// returns the measured series. Snapshot generation, transposed into the
// Aᵢᵀ rows APMOS takes, happens outside the timed region; only Decompose (local SVDs, gather, root randomized SVD,
// broadcast, mode assembly) is on the clock.
func RunMeasured(cfg MeasuredConfig) []Point {
	cfg.validate()
	points := make([]Point, 0, len(cfg.Ranks))
	for _, p := range cfg.Ranks {
		// Weak scaling: the global problem grows with the rank count.
		bc := burgers.Config{
			L: 1, Re: 1000,
			Nx: cfg.RowsPerRank * p, Nt: cfg.Snapshots, TFinal: 2,
		}
		parts := bc.Partition(p)
		blocks := make([]*mat.Dense, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				blocks[r] = bc.SnapshotsRows(parts[r][0], parts[r][1]).T() // Aᵢᵀ, as APMOS takes it
			}(r)
		}
		wg.Wait()

		opts := apmos.Options{
			K: cfg.K, R1: cfg.R1, R2: cfg.K,
			LowRank: true,
			RLA:     rla.Options{Oversample: 10, PowerIters: 1, Seed: 7},
		}
		best := math.Inf(1)
		var bytes int64
		for trial := 0; trial < cfg.Trials; trial++ {
			start := time.Now()
			stats := mpi.MustRun(p, func(c *mpi.Comm) {
				if _, _, err := apmos.Decompose(c, blocks[c.Rank()], opts); err != nil {
					panic(err) // MustRun aborts the world and re-panics
				}
			})
			if dt := time.Since(start).Seconds(); dt < best {
				best = dt
			}
			bytes = stats.Bytes
		}
		points = append(points, Point{Ranks: p, Seconds: best, CommBytes: bytes})
	}
	FillEfficiency(points)
	return points
}

// Model is the analytic cost model of one APMOS (randomized) decomposition
// on a Theta-like machine. All times are seconds.
type Model struct {
	// Workload, matching MeasuredConfig semantics.
	RowsPerRank int
	Snapshots   int
	K           int
	R1          int
	Oversample  int

	// FlopsPerSec is the sustained per-rank flop rate. A KNL core running
	// vectorized LAPACK-ish kernels sustains a few GF/s.
	FlopsPerSec float64
	// LatencySec is the per-message network latency α (Aries ~ 1–2 µs).
	LatencySec float64
	// BytesPerSec is the per-link bandwidth 1/β (Aries ~ 8–10 GB/s).
	BytesPerSec float64
}

// DefaultThetaModel returns constants representative of the paper's
// platform: Theta's Intel KNL nodes on a Cray Aries dragonfly.
func DefaultThetaModel() Model {
	return Model{
		RowsPerRank: 1024,
		Snapshots:   800,
		K:           10,
		R1:          50,
		Oversample:  10,
		FlopsPerSec: 3e9,
		LatencySec:  2e-6,
		BytesPerSec: 8e9,
	}
}

// Time evaluates the modeled execution time for the given rank count.
//
// Cost terms (M = RowsPerRank, N = Snapshots, l = K+Oversample, P = ranks):
//
//	local Gram matrix        2·M·N²              (perfectly parallel)
//	local right-vector SVD   ~10·N³              (per rank, constant)
//	local sketch+modes       2·M·N·l + 2·M·N·K
//	gather W at root         (P−1)·(α + 8·N·R1/BW)   — root incast
//	root randomized SVD      ~4·N·(R1·P)·l + 8·(R1·P)·l²  — linear in P
//	broadcast X̃, Λ̃          ⌈log₂P⌉·(α + 8·N·K/BW)
func (m Model) Time(ranks int) float64 {
	if ranks < 1 {
		panic(fmt.Sprintf("scaling: ranks = %d", ranks))
	}
	M := float64(m.RowsPerRank)
	N := float64(m.Snapshots)
	K := float64(m.K)
	R1 := float64(m.R1)
	l := K + float64(m.Oversample)
	P := float64(ranks)

	flops := 2*M*N*N + // Gram
		10*N*N*N + // local SVD of the N×N Gram matrix
		2*M*N*l + 2*M*N*K // sketch + mode assembly
	t := flops / m.FlopsPerSec

	// Gather incast at the root.
	wBytes := 8 * N * R1
	t += (P - 1) * (m.LatencySec + wBytes/m.BytesPerSec)

	// Root randomized SVD of the N×(R1·P) W matrix.
	rootFlops := 4*N*(R1*P)*l + 8*(R1*P)*l*l
	t += rootFlops / m.FlopsPerSec

	// Broadcast down a binomial tree (absent in a single-rank run).
	if ranks > 1 {
		xBytes := 8 * (N*K + K)
		t += math.Ceil(math.Log2(P)) * (m.LatencySec + xBytes/m.BytesPerSec)
	}
	return t
}

// Series evaluates the model at the given rank counts.
func (m Model) Series(ranks []int) []Point {
	points := make([]Point, len(ranks))
	for i, p := range ranks {
		points[i] = Point{Ranks: p, Seconds: m.Time(p)}
	}
	FillEfficiency(points)
	return points
}

// PowersOfTwo returns {1, 2, 4, …} up to and including max (if max is a
// power of two) — the natural x-axis of the Figure 1(c) log plot.
func PowersOfTwo(max int) []int {
	var out []int
	for p := 1; p <= max; p *= 2 {
		out = append(out, p)
	}
	return out
}

// FillEfficiency sets Efficiency = T(first)/T(p) on a series — the
// weak-scaling convention of Figure 1(c). Exported so every series
// producer (measured, modeled, multi-process TCP) derives efficiency the
// same way.
func FillEfficiency(points []Point) {
	if len(points) == 0 {
		return
	}
	base := points[0].Seconds
	for i := range points {
		if points[i].Seconds > 0 {
			points[i].Efficiency = base / points[i].Seconds
		}
	}
}

// FormatSeries renders a fixed-width weak-scaling table matching the
// figure's content: rank count, time, efficiency.
func FormatSeries(title string, points []Point) string {
	s := title + "\n"
	s += fmt.Sprintf("%8s  %12s  %10s\n", "ranks", "time[s]", "efficiency")
	for _, p := range points {
		s += fmt.Sprintf("%8d  %12.4e  %10.3f\n", p.Ranks, p.Seconds, p.Efficiency)
	}
	return s
}

// WriteCSV writes a series to path as CSV, header
// "ranks,seconds,efficiency,comm_bytes" then one row per point. It returns
// the first write or close error, so a full disk fails the write rather
// than leaving a truncated file behind a nil error.
func WriteCSV(path string, points []Point) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = writeCSV(f, points)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func writeCSV(w io.Writer, points []Point) error {
	if _, err := fmt.Fprintln(w, "ranks,seconds,efficiency,comm_bytes"); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "%d,%.6e,%.6f,%d\n", p.Ranks, p.Seconds, p.Efficiency, p.CommBytes); err != nil {
			return err
		}
	}
	return nil
}

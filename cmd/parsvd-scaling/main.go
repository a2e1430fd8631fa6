// Command parsvd-scaling measures weak scaling of the streaming SVD on
// real worker processes: for every rank count p, a WithRanks(p)
// Distributed SVD fits the deterministic streaming workload
// (parsvd.FromWorkload) on p parsvd-worker OS processes, fed their row
// blocks by this process, with a fixed number of grid points per rank. A
// point's seconds is the wall clock of that Fit, so it includes spawning
// the worker fleet and scattering every batch from this process to the
// workers; comm_bytes is the inter-rank traffic the workers report
// (Stats().Bytes). With -verify (the default) each point is checked
// before it is reported: the Parallel backend fits the same source with
// the same options, and the spectra and the gathered modes' SHA-256 must
// match bit for bit. The command exits nonzero on any mismatch.
//
// The paper's Figure 1(c) series (APMOS on goroutine ranks, plus the
// Theta-calibrated model) is E3 of cmd/parsvd-repro.
//
// Outputs: fig1c_tcp_measured.csv in -outdir and a table on stdout.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	parsvd "goparsvd"
	"goparsvd/internal/launch"
	"goparsvd/internal/scaling"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("parsvd-scaling: ")

	var (
		rowsPerRank = flag.Int("rows-per-rank", 1024, "grid points per rank (paper: 1024)")
		snapshots   = flag.Int("snapshots", 128, "snapshot count of the workload")
		k           = flag.Int("k", 10, "modes for the SVD")
		ranksFlag   = flag.String("ranks", "1,2,4,8,16", "comma-separated measured rank counts")
		outdir      = flag.String("outdir", "out/scaling", "output directory")
		initBatch   = flag.Int("init-batch", 24, "columns consumed by Initialize")
		batch       = flag.Int("batch", 12, "columns per streaming update")
		ff          = flag.Float64("ff", 0.95, "streaming forget factor")
		lowRank     = flag.Bool("lowrank", false, "use the randomized SVD pipeline")
		seed        = flag.Int64("seed", 7, "randomized-SVD sketch seed")
		workerBin   = flag.String("worker", "", "parsvd-worker binary (default: $PARSVD_WORKER, sibling, PATH, then go build)")
		verify      = flag.Bool("verify", true, "check each point bit-for-bit against the Parallel backend")
		timeout     = flag.Duration("timeout", 5*time.Minute, "per-point job timeout")
	)
	flag.Parse()

	ranks, err := parseRanks(*ranksFlag)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		log.Fatal(err)
	}
	run(config{
		workload: parsvd.Workload{
			RowsPerRank: *rowsPerRank,
			Snapshots:   *snapshots,
			InitBatch:   *initBatch,
			Batch:       *batch,
			K:           *k,
			FF:          *ff,
			LowRank:     *lowRank,
			Seed:        *seed,
		},
		ranks: ranks, workerBin: *workerBin,
		verify: *verify, timeout: *timeout, outdir: *outdir,
	})
}

type config struct {
	workload  parsvd.Workload
	ranks     []int
	workerBin string
	verify    bool
	timeout   time.Duration
	outdir    string
}

// run fits the workload on the Distributed backend once per rank count,
// verifies each fit against the Parallel backend, and reports the
// measured scaling series.
func run(cfg config) {
	if err := cfg.workload.Validate(); err != nil {
		log.Fatal(err)
	}
	log.Printf("series: %d rows/rank, %d snapshots (init %d, batch %d), ranks %v",
		cfg.workload.RowsPerRank, cfg.workload.Snapshots, cfg.workload.InitBatch,
		cfg.workload.Batch, cfg.ranks)

	if cfg.workerBin == "" {
		// Resolve (in a checkout: build) the worker once, outside the
		// timed fits.
		bin, err := launch.ResolveWorker()
		if err != nil {
			log.Fatal(err)
		}
		cfg.workerBin = bin
	}
	points := make([]scaling.Point, 0, len(cfg.ranks))
	for _, p := range cfg.ranks {
		log.Printf("fitting on %d worker process(es)…", p)
		res, st, seconds, err := fit(cfg, parsvd.Distributed, p)
		if err != nil {
			log.Fatalf("%d-rank distributed fit failed: %v", p, err)
		}
		if cfg.verify {
			par, _, _, err := fit(cfg, parsvd.Parallel, p)
			if err != nil {
				log.Fatalf("%d ranks: Parallel reference fit failed: %v", p, err)
			}
			if !slices.EqualFunc(res.Singular, par.Singular, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				log.Fatalf("%d ranks: VERIFICATION FAILED: spectra differ:\n distributed %v\n parallel    %v", p, res.Singular, par.Singular)
			}
			if want := launch.HashModes(par.Modes); res.ModesSHA256 != want {
				log.Fatalf("%d ranks: VERIFICATION FAILED: modes sha %s, parallel %s", p, res.ModesSHA256, want)
			}
			log.Printf("%d ranks: verified — singular values and modes match the Parallel backend bit-for-bit", p)
		}
		log.Printf("%d ranks: %.3f s, %d msgs, %d payload bytes", p, seconds, st.Messages, st.Bytes)
		points = append(points, scaling.Point{Ranks: p, Seconds: seconds, CommBytes: st.Bytes})
	}
	scaling.FillEfficiency(points)

	fmt.Println()
	fmt.Print(scaling.FormatSeries("measured weak scaling (worker processes, streaming SVD)", points))
	if err := scaling.WriteCSV(filepath.Join(cfg.outdir, "fig1c_tcp_measured.csv"), points); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nartifacts written to %s\n", cfg.outdir)
}

// fit runs the workload through a p-rank SVD on backend b, bounded by
// cfg.timeout, and returns its result, traffic counters and the wall
// clock of the Fit call alone (fleet shutdown excluded).
func fit(cfg config, b parsvd.Backend, p int) (*parsvd.Result, parsvd.Stats, float64, error) {
	w := cfg.workload
	opts := []parsvd.Option{
		parsvd.WithBackend(b), parsvd.WithRanks(p),
		parsvd.WithModes(w.K), parsvd.WithForgetFactor(w.FF),
	}
	if w.LowRank {
		opts = append(opts, parsvd.WithLowRank(parsvd.RLA{Oversample: 10, PowerIters: 1, Seed: w.Seed}))
	}
	if b == parsvd.Distributed {
		opts = append(opts, parsvd.WithTransport(parsvd.TransportConfig{WorkerBin: cfg.workerBin}))
	}
	svd, err := parsvd.New(opts...)
	if err != nil {
		return nil, parsvd.Stats{}, 0, err
	}
	defer svd.Close()
	src, err := parsvd.FromWorkload(w, p)
	if err != nil {
		return nil, parsvd.Stats{}, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
	defer cancel()
	start := time.Now()
	res, err := svd.Fit(ctx, src)
	return res, svd.Stats(), time.Since(start).Seconds(), err
}

func parseRanks(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("invalid rank count %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no rank counts in %q", s)
	}
	return out, nil
}

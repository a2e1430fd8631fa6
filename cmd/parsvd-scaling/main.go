// Command parsvd-scaling reproduces Figure 1(c) of the PyParSVD paper —
// the weak scaling of the parallelized + randomized SVD with a fixed 1024
// grid points per rank — and doubles as the launcher for real
// multi-process runs.
//
// Transport modes (-transport):
//
//   - chan (default): the historical in-process measurement. Goroutine
//     ranks execute the APMOS decomposition; a Theta-calibrated analytic
//     model extends the series to 16384 ranks. Honest wall clock, but
//     ranks beyond the local core count time-share the CPU.
//
//   - tcp: the facade's Distributed backend. For every rank count p, a
//     WithRanks(p) Distributed SVD fits the deterministic streaming
//     workload (parsvd.FromWorkload): p parsvd-worker OS processes
//     connect over loopback TCP (the internal/mpi/tcptransport fabric)
//     and run the full distributed *streaming* SVD over real sockets,
//     fed their row blocks by this process. A point's seconds is the
//     wall clock of that Fit, so it includes spawning the worker fleet
//     and scattering every batch from this process to the workers;
//     comm_bytes is the inter-rank traffic the workers report
//     (Stats().Bytes). With -verify (the default) each point is checked
//     before it is reported: the Parallel backend fits the same source
//     with the same options, and the spectra and the gathered modes'
//     SHA-256 must match bit for bit. The command exits nonzero on any
//     mismatch.
//
// Outputs: a CSV per series in -outdir, tables on stdout.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
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
		transport   = flag.String("transport", "chan", "rank fabric: chan (in-process goroutines) or tcp (one OS process per rank)")
		rowsPerRank = flag.Int("rows-per-rank", 1024, "grid points per rank (paper: 1024)")
		snapshots   = flag.Int("snapshots", 128, "snapshot count for the measured series")
		k           = flag.Int("k", 10, "modes for the SVD")
		r1          = flag.Int("r1", 32, "APMOS gather truncation for the measured series")
		ranksFlag   = flag.String("ranks", "1,2,4,8,16", "comma-separated measured rank counts")
		trials      = flag.Int("trials", 3, "trials per point (minimum kept; chan mode only)")
		modelMax    = flag.Int("model-max", 16384, "largest rank count for the modeled series (chan mode only)")
		outdir      = flag.String("outdir", "out/scaling", "output directory")

		// tcp-mode streaming workload shape.
		initBatch = flag.Int("init-batch", 24, "tcp mode: columns consumed by Initialize")
		batch     = flag.Int("batch", 12, "tcp mode: columns per streaming update")
		ff        = flag.Float64("ff", 0.95, "tcp mode: streaming forget factor")
		lowRank   = flag.Bool("lowrank", false, "tcp mode: use the randomized SVD pipeline")
		seed      = flag.Int64("seed", 7, "tcp mode: randomized-SVD sketch seed")
		workerBin = flag.String("worker", "", "tcp mode: parsvd-worker binary (default: $PARSVD_WORKER, sibling, PATH, then go build)")
		verify    = flag.Bool("verify", true, "tcp mode: check each point bit-for-bit against the Parallel backend")
		timeout   = flag.Duration("timeout", 5*time.Minute, "tcp mode: per-point job timeout")
	)
	flag.Parse()

	ranks, err := parseRanks(*ranksFlag)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		log.Fatal(err)
	}

	switch *transport {
	case "chan":
		runChanMode(chanConfig{
			rowsPerRank: *rowsPerRank, snapshots: *snapshots, k: *k, r1: *r1,
			ranks: ranks, trials: *trials, modelMax: *modelMax, outdir: *outdir,
		})
	case "tcp":
		w := parsvd.Workload{
			RowsPerRank: *rowsPerRank,
			Snapshots:   *snapshots,
			InitBatch:   *initBatch,
			Batch:       *batch,
			K:           *k,
			R1:          *r1,
			FF:          *ff,
			LowRank:     *lowRank,
			Seed:        *seed,
		}
		runTCPMode(tcpConfig{
			workload: w, ranks: ranks, workerBin: *workerBin,
			verify: *verify, timeout: *timeout, outdir: *outdir,
		})
	default:
		log.Fatalf("unknown -transport %q (want chan or tcp)", *transport)
	}
}

type chanConfig struct {
	rowsPerRank, snapshots, k, r1 int
	ranks                         []int
	trials, modelMax              int
	outdir                        string
}

// runChanMode is the historical Figure 1(c) reproduction: measured
// goroutine ranks plus the Theta-calibrated analytic model.
func runChanMode(cfg chanConfig) {
	mcfg := scaling.MeasuredConfig{
		RowsPerRank: cfg.rowsPerRank,
		Snapshots:   cfg.snapshots,
		K:           cfg.k,
		R1:          cfg.r1,
		Ranks:       cfg.ranks,
		Trials:      cfg.trials,
	}
	log.Printf("measured series: %d rows/rank, %d snapshots, ranks %v", cfg.rowsPerRank, cfg.snapshots, cfg.ranks)
	measured := scaling.RunMeasured(mcfg)
	fmt.Println()
	fmt.Print(scaling.FormatSeries("measured weak scaling (goroutine ranks, this machine)", measured))

	model := scaling.DefaultThetaModel()
	model.RowsPerRank = cfg.rowsPerRank
	model.K = cfg.k
	modeled := model.Series(scaling.PowersOfTwo(cfg.modelMax))
	fmt.Println()
	fmt.Print(scaling.FormatSeries(
		fmt.Sprintf("modeled weak scaling (Theta-like constants, N=%d, r1=%d)", model.Snapshots, model.R1),
		modeled))

	if err := writeCSV(filepath.Join(cfg.outdir, "fig1c_measured.csv"), measured); err != nil {
		log.Fatal(err)
	}
	if err := writeCSV(filepath.Join(cfg.outdir, "fig1c_model.csv"), modeled); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nartifacts written to %s\n", cfg.outdir)
}

type tcpConfig struct {
	workload  parsvd.Workload
	ranks     []int
	workerBin string
	verify    bool
	timeout   time.Duration
	outdir    string
}

// runTCPMode fits the workload on the Distributed backend once per rank
// count, verifies each fit against the Parallel backend, and reports the
// socket-measured scaling series.
func runTCPMode(cfg tcpConfig) {
	if err := cfg.workload.Validate(); err != nil {
		log.Fatal(err)
	}
	log.Printf("tcp series: %d rows/rank, %d snapshots (init %d, batch %d), ranks %v",
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
			log.Fatalf("%d-rank TCP fit failed: %v", p, err)
		}
		if cfg.verify {
			par, _, _, err := fit(cfg, parsvd.Parallel, p)
			if err != nil {
				log.Fatalf("%d ranks: Parallel reference fit failed: %v", p, err)
			}
			// The wire encoding is the spectrum's IEEE-754 bits.
			if !bytes.Equal(launch.EncodeFloats(res.Singular), launch.EncodeFloats(par.Singular)) {
				log.Fatalf("%d ranks: VERIFICATION FAILED: spectra differ:\n tcp      %v\n parallel %v", p, res.Singular, par.Singular)
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
	fmt.Print(scaling.FormatSeries("measured weak scaling (TCP worker processes, streaming SVD)", points))
	if err := writeCSV(filepath.Join(cfg.outdir, "fig1c_tcp_measured.csv"), points); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nartifacts written to %s\n", cfg.outdir)
}

// fit runs the workload through a p-rank SVD on backend b, bounded by
// cfg.timeout, and returns its result, traffic counters and the wall
// clock of the Fit call alone (fleet shutdown excluded).
func fit(cfg tcpConfig, b parsvd.Backend, p int) (*parsvd.Result, parsvd.Stats, float64, error) {
	w := cfg.workload
	opts := []parsvd.Option{
		parsvd.WithBackend(b), parsvd.WithRanks(p),
		parsvd.WithModes(w.K), parsvd.WithForgetFactor(w.FF), parsvd.WithInitRank(w.R1),
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

func writeCSV(path string, points []scaling.Point) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "ranks,seconds,efficiency,comm_bytes")
	for _, p := range points {
		fmt.Fprintf(f, "%d,%.6e,%.6f,%d\n", p.Ranks, p.Seconds, p.Efficiency, p.CommBytes)
	}
	return nil
}

package server_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	parsvd "goparsvd"
	"goparsvd/internal/launch"
	"goparsvd/internal/testutil"
	"goparsvd/server"
	"goparsvd/server/client"
)

// buildServeOnce caches the parsvd-serve binary for the crash suite: one
// `go build` per test process, shared by every subtest.
var buildServeOnce struct {
	sync.Once
	path string
	err  error
}

func buildServe(t *testing.T) string {
	t.Helper()
	buildServeOnce.Do(func() {
		goBin, err := exec.LookPath("go")
		if err != nil {
			buildServeOnce.err = fmt.Errorf("no Go toolchain to build parsvd-serve: %w", err)
			return
		}
		dir, err := os.MkdirTemp("", "parsvd-serve-*")
		if err != nil {
			buildServeOnce.err = err
			return
		}
		out := filepath.Join(dir, "parsvd-serve")
		cmd := exec.Command(goBin, "build", "-o", out, "goparsvd/cmd/parsvd-serve")
		if msg, err := cmd.CombinedOutput(); err != nil {
			buildServeOnce.err = fmt.Errorf("building parsvd-serve: %v\n%s", err, msg)
			return
		}
		buildServeOnce.path = out
	})
	if buildServeOnce.err != nil {
		t.Fatal(buildServeOnce.err)
	}
	return buildServeOnce.path
}

// serveProc is a real parsvd-serve process under test control.
type serveProc struct {
	cmd  *exec.Cmd
	addr string
}

// startServe launches parsvd-serve on a kernel-picked port and parses the
// bound address from its log output. extraEnv rides on top of the test
// environment (PARSVD_WORKER for distributed models).
func startServe(t *testing.T, bin string, args []string, extraEnv []string) *serveProc {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), extraEnv...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("serve: %s", line)
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrCh <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &serveProc{cmd: cmd, addr: addr}
	case <-time.After(30 * time.Second):
		t.Fatal("parsvd-serve never reported its listen address")
		return nil
	}
}

func (p *serveProc) client() *client.Client {
	c := client.New("http://" + p.addr)
	// Boots race the first request; ride out connection refusals.
	c.Retry = client.RetryPolicy{MaxAttempts: 5, BaseDelay: 50 * time.Millisecond}
	return c
}

// sigkill is the crash: kill -9, no signal handler, no flush, no goodbye.
func (p *serveProc) sigkill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait()
}

// sigterm is the graceful counterpart, used to shut the reboot down.
func (p *serveProc) sigterm(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

// drainBatches materializes the deterministic workload stream.
func drainBatches(t *testing.T, w parsvd.Workload, ranks int) []*parsvd.Matrix {
	t.Helper()
	src, err := parsvd.FromWorkload(w, ranks)
	if err != nil {
		t.Fatal(err)
	}
	var batches []*parsvd.Matrix
	for {
		b, err := src.Next(context.Background())
		if err == io.EOF {
			return batches
		}
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, b)
	}
}

// TestCrashRecoverySIGKILL is the crash gate: a real
// parsvd-serve process is SIGKILLed mid-stream — after a known prefix of
// acked pushes — and rebooted on the same directory. The rebooted server
// must serve the spectrum of exactly that acked prefix, within 1e-12 of an
// uninterrupted in-process run: zero acked pushes lost, none applied
// twice. Runs across all three backends; the distributed model's recovery
// re-spawns its worker fleet and re-feeds it from the WAL.
func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("crash gate spawns real processes; skipped in -short")
	}
	bin := buildServe(t)

	cases := []struct {
		name    string
		backend string
		ranks   int
		// ckptInterval decides what recovery exercises: 1h means pure
		// spec+WAL replay; a short interval lets periodic checkpoints (and
		// WAL rotations) race the kill, so recovery stacks remaining WAL
		// records on a checkpoint base.
		ckptInterval string
	}{
		{name: "serial", backend: "serial", ranks: 1, ckptInterval: "200ms"},
		{name: "parallel", backend: "parallel", ranks: 2, ckptInterval: "1h"},
		{name: "distributed", backend: "distributed", ranks: 2, ckptInterval: "1h"},
	}

	// Distributed models need the worker binary; resolve (and build) it
	// once here instead of inside the SIGKILL timing window.
	workerBin, err := launch.ResolveWorker()
	if err != nil {
		t.Fatalf("resolving parsvd-worker: %v", err)
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			w := parsvd.DefaultWorkload()
			w.RowsPerRank = 48
			w.Snapshots = 96
			w.InitBatch = 24
			w.Batch = 12
			w.K = 6

			batches := drainBatches(t, w, tc.ranks)
			killAfter := (len(batches) * 3) / 5 // acked prefix at the kill
			if killAfter < 2 {
				t.Fatalf("workload too small: %d batches", len(batches))
			}

			dir := t.TempDir()
			args := []string{
				"-checkpoint-dir", dir,
				"-checkpoint-interval", tc.ckptInterval,
				"-fsync", "always",
			}
			env := []string{launch.WorkerEnv + "=" + workerBin}

			p1 := startServe(t, bin, args, env)
			c1 := p1.client()
			if _, err := c1.CreateModel(ctx, server.ModelSpec{
				Name:         "crash",
				Modes:        w.K,
				ForgetFactor: w.FF,
				Backend:      tc.backend,
				Ranks:        tc.ranks,
			}); err != nil {
				t.Fatal(err)
			}
			acked := 0
			for _, b := range batches[:killAfter] {
				if _, err := c1.Push(ctx, "crash", b); err != nil {
					t.Fatal(err)
				}
				acked += b.Cols()
			}
			p1.sigkill(t)

			// Uninterrupted in-process reference over the acked prefix.
			ref, err := parsvd.New(parsvd.WithModes(w.K), parsvd.WithForgetFactor(w.FF))
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			for _, b := range batches[:killAfter] {
				if err := ref.Push(b); err != nil {
					t.Fatal(err)
				}
			}
			want, err := ref.Result()
			if err != nil {
				t.Fatal(err)
			}

			// Reboot on the same directory: replay must reconstruct the
			// acked prefix exactly.
			p2 := startServe(t, bin, args, env)
			c2 := p2.client()
			info, err := c2.Model(ctx, "crash")
			if err != nil {
				t.Fatalf("model did not survive the crash: %v", err)
			}
			if info.Stats.Snapshots != acked {
				t.Fatalf("recovered %d snapshots, want the %d acked before SIGKILL", info.Stats.Snapshots, acked)
			}
			got, err := c2.Spectrum(ctx, "crash")
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Singular) != len(want.Singular) {
				t.Fatalf("recovered spectrum has %d values, want %d", len(got.Singular), len(want.Singular))
			}
			var maxDiff float64
			for i := range want.Singular {
				if d := math.Abs(got.Singular[i] - want.Singular[i]); d > maxDiff {
					maxDiff = d
				}
			}
			if maxDiff > 1e-12 {
				t.Fatalf("recovered spectrum deviates from the uninterrupted run by %g, want <= 1e-12", maxDiff)
			}

			// The survivor keeps streaming: push the rest of the workload.
			for _, b := range batches[killAfter:] {
				if _, err := c2.Push(ctx, "crash", b); err != nil {
					t.Fatal(err)
				}
			}
			info, err = c2.Model(ctx, "crash")
			if err != nil {
				t.Fatal(err)
			}
			if info.Stats.Snapshots != w.Snapshots {
				t.Fatalf("post-recovery stream reached %d snapshots, want %d", info.Stats.Snapshots, w.Snapshots)
			}
			p2.sigterm(t)
			t.Logf("crash-smoke %s: killed after %d/%d acked pushes, recovered with max deviation %g",
				tc.name, killAfter, len(batches), maxDiff)
		})
	}
}

// TestCrashRecoveryMergeSIGKILL is the merge half of the crash gate: a
// real parsvd-serve process is SIGKILLed around a /merge and rebooted on
// the same directory. The WAL makes the merge atomic-on-disk — the
// absorbed checkpoint is one record, logged after the engine applied it
// and before the ack — so recovery must land on exactly the pre-merge or
// the post-merge state, never anything in between. Two phases: an acked
// merge must survive the kill (durability), and a kill racing the merge
// request must still recover to one of the two legal states (atomicity).
func TestCrashRecoveryMergeSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("crash gate spawns real processes; skipped in -short")
	}
	bin := buildServe(t)
	ctx := context.Background()

	w := parsvd.DefaultWorkload()
	w.RowsPerRank = 48
	w.Snapshots = 96
	w.InitBatch = 24
	w.Batch = 12
	w.K = 6
	w.FF = 1.0 // the merge operand is fit without recency weighting
	batches := drainBatches(t, w, 1)
	killAfter := (len(batches) * 3) / 5
	acked := 0
	for _, b := range batches[:killAfter] {
		acked += b.Cols()
	}

	// The merge operand: a shard-local fit over a fresh rank-4 block with
	// the model's row count, saved to checkpoint bytes once and reused for
	// the server upload and both references.
	shardData, _ := testutil.RandomLowRank(w.RowsPerRank, 16, 4, 0, testutil.NewRand(11))
	ckpt := shardCheckpoint(t, shardData, 0, 16, w.K, 1, 2)
	const mergeSnaps = 16

	// preWant / postWant: uninterrupted in-process references for the two
	// legal recovery states.
	refSpectrum := func(withMerge bool) []float64 {
		ref, err := parsvd.New(parsvd.WithModes(w.K), parsvd.WithForgetFactor(w.FF))
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		for _, b := range batches[:killAfter] {
			if err := ref.Push(b); err != nil {
				t.Fatal(err)
			}
		}
		if withMerge {
			if err := ref.Merge(bytes.NewReader(ckpt)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := ref.Result()
		if err != nil {
			t.Fatal(err)
		}
		return res.Singular
	}
	preWant, postWant := refSpectrum(false), refSpectrum(true)

	spectrumDiff := func(got, want []float64) float64 {
		if len(got) != len(want) {
			return math.Inf(1)
		}
		var max float64
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > max {
				max = d
			}
		}
		return max
	}

	for _, phase := range []struct {
		name      string
		waitAck   bool // kill only after the merge is acked
		wantMerge string
	}{
		{name: "acked-merge-survives", waitAck: true, wantMerge: "post"},
		{name: "racing-kill-atomic", waitAck: false, wantMerge: "either"},
	} {
		t.Run(phase.name, func(t *testing.T) {
			dir := t.TempDir()
			args := []string{
				"-checkpoint-dir", dir,
				"-checkpoint-interval", "1h",
				"-fsync", "always",
			}
			p1 := startServe(t, bin, args, nil)
			c1 := p1.client()
			if _, err := c1.CreateModel(ctx, server.ModelSpec{
				Name: "crash", Modes: w.K, ForgetFactor: w.FF,
			}); err != nil {
				t.Fatal(err)
			}
			for _, b := range batches[:killAfter] {
				if _, err := c1.Push(ctx, "crash", b); err != nil {
					t.Fatal(err)
				}
			}

			mergeDone := make(chan error, 1)
			go func() {
				_, err := c1.Merge(ctx, "crash", bytes.NewReader(ckpt))
				mergeDone <- err
			}()
			if phase.waitAck {
				if err := <-mergeDone; err != nil {
					t.Fatal(err)
				}
			}
			p1.sigkill(t)

			p2 := startServe(t, bin, args, nil)
			c2 := p2.client()
			info, err := c2.Model(ctx, "crash")
			if err != nil {
				t.Fatalf("model did not survive the crash: %v", err)
			}
			got, err := c2.Spectrum(ctx, "crash")
			if err != nil {
				t.Fatal(err)
			}

			preDiff, postDiff := spectrumDiff(got.Singular, preWant), spectrumDiff(got.Singular, postWant)
			switch {
			case info.Stats.Snapshots == acked+mergeSnaps && postDiff <= 1e-12:
				if phase.wantMerge == "pre" {
					t.Fatalf("recovered to post-merge state, want pre-merge")
				}
				t.Logf("%s: recovered post-merge, deviation %g", phase.name, postDiff)
			case info.Stats.Snapshots == acked && preDiff <= 1e-12:
				if phase.wantMerge == "post" {
					t.Fatalf("acked merge lost: recovered to pre-merge state")
				}
				t.Logf("%s: recovered pre-merge, deviation %g", phase.name, preDiff)
			default:
				t.Fatalf("recovered to a state that is neither pre- nor post-merge: %d snapshots (pre %d / post %d), deviation pre %g post %g",
					info.Stats.Snapshots, acked, acked+mergeSnaps, preDiff, postDiff)
			}

			// The survivor keeps streaming.
			if _, err := c2.Push(ctx, "crash", batches[killAfter]); err != nil {
				t.Fatal(err)
			}
			p2.sigterm(t)
		})
	}
}

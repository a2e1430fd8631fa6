package parsvd_test

// Fault injection against the Distributed backend's persistent session:
// killing a worker mid-stream must surface promptly as a typed engine
// failure (never a hang), reap the whole fleet, leave the SVD permanently
// poisoned, and leak nothing.

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	parsvd "goparsvd"

	"goparsvd/internal/testutil"
)

// faultSVD builds a 2-rank distributed SVD with a short idle timeout so
// even the slowest failure path (a wedged-but-alive peer) resolves within
// the test budget.
func faultSVD(t *testing.T) *parsvd.SVD {
	t.Helper()
	svd, err := parsvd.New(
		parsvd.WithModes(4),
		parsvd.WithBackend(parsvd.Distributed),
		parsvd.WithRanks(2),
		parsvd.WithTransport(parsvd.TransportConfig{
			Timeout:     30 * time.Second,
			IdleTimeout: 10 * time.Second,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svd.Close() })
	return svd
}

// TestDistributedWorkerDeathPoisonsSVD: SIGKILL one rank after the stream
// is established, then push again. The facade must return an error
// wrapping ErrEngineFailed well inside the idle timeout, every worker
// process must be reaped, all later operations must refuse with the same
// sentinel, and the launcher side must not leak goroutines.
func TestDistributedWorkerDeathPoisonsSVD(t *testing.T) {
	if testing.Short() && os.Getenv("CI") == "" {
		t.Skip("short mode: skipping multi-process fault injection")
	}
	rng := testutil.NewRand(9)
	batch := func() *parsvd.Matrix { return testutil.RandomDense(32, 6, rng) }

	before := runtime.NumGoroutine()
	svd := faultSVD(t)
	if err := svd.Push(batch()); err != nil {
		t.Fatalf("seed push: %v", err)
	}
	pids := parsvd.DistWorkerPIDs(svd)
	if len(pids) != 2 || pids[0] == 0 || pids[1] == 0 {
		t.Fatalf("worker pids: %v", pids)
	}
	if err := syscall.Kill(pids[1], syscall.SIGKILL); err != nil {
		t.Fatalf("killing rank 1: %v", err)
	}

	start := time.Now()
	err := svd.Push(batch())
	detect := time.Since(start)
	if err == nil {
		t.Fatal("push into a dead fleet did not error")
	}
	if !errors.Is(err, parsvd.ErrEngineFailed) {
		t.Fatalf("push error %v does not wrap ErrEngineFailed", err)
	}
	// The cause is rank 1's death, not rank 0's echo of the abort it saw.
	if !strings.Contains(err.Error(), "rank 1") || strings.Contains(err.Error(), "world aborted") {
		t.Fatalf("push error %v does not name the killed rank", err)
	}
	if detect > 10*time.Second {
		t.Fatalf("failure took %v to surface; must beat the idle timeout, not ride it", detect)
	}

	// Poisoned: every further operation refuses with the same sentinel,
	// immediately (the fleet is gone; nothing is retried on the wire).
	if err := svd.Push(batch()); !errors.Is(err, parsvd.ErrEngineFailed) {
		t.Fatalf("push on poisoned SVD: %v", err)
	}
	if _, err := svd.Result(); !errors.Is(err, parsvd.ErrEngineFailed) {
		t.Fatalf("result on poisoned SVD: %v", err)
	}
	if err := svd.Save(new(discardWriter)); !errors.Is(err, parsvd.ErrEngineFailed) {
		t.Fatalf("save on poisoned SVD: %v", err)
	}

	// The whole fleet — the healthy rank 0 included — is reaped well
	// within the idle timeout.
	deadline := time.Now().Add(10 * time.Second)
	for _, pid := range pids {
		for time.Now().Before(deadline) && syscall.Kill(pid, 0) == nil {
			time.Sleep(20 * time.Millisecond)
		}
		if syscall.Kill(pid, 0) == nil {
			t.Errorf("worker pid %d still alive after the session failed", pid)
		}
	}

	if err := svd.Close(); err != nil {
		t.Fatalf("close after failure: %v", err)
	}
	waitForGoroutineBaseline(t, before)
}

// TestDistributedFailedStartDoesNotPoison: the first Push is a fleet's
// first exchange, so it is where a fleet that never came up shows. With a
// worker binary that exits before reading a frame, that Push must fail
// without ErrEngineFailed — nothing was ingested — and leave no child
// process, not even a zombie; the next Push must spawn a fresh fleet
// rather than report a poisoned engine.
func TestDistributedFailedStartDoesNotPoison(t *testing.T) {
	if testing.Short() && os.Getenv("CI") == "" {
		t.Skip("short mode: skipping multi-process fault injection")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "exit-at-once")
	pidFile := filepath.Join(dir, "pids")
	script := "#!/bin/sh\necho $$ >> '" + pidFile + "'\nexit 1\n"
	if err := os.WriteFile(bin, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	spawned := func() []int {
		data, err := os.ReadFile(pidFile)
		if err != nil {
			t.Fatal(err)
		}
		var pids []int
		for _, f := range strings.Fields(string(data)) {
			pid, err := strconv.Atoi(f)
			if err != nil {
				t.Fatal(err)
			}
			pids = append(pids, pid)
		}
		return pids
	}
	svd, err := parsvd.New(
		parsvd.WithModes(2),
		parsvd.WithBackend(parsvd.Distributed),
		parsvd.WithRanks(2),
		parsvd.WithTransport(parsvd.TransportConfig{WorkerBin: bin, Timeout: 30 * time.Second}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svd.Close()
	rng := testutil.NewRand(13)
	before := runtime.NumGoroutine()

	// A rank that exits first fails the Push, and the fleet is killed
	// then: its peer may die before it records its pid, never after.
	seen := 0
	for attempt := range 2 {
		err := svd.Push(testutil.RandomDense(16, 4, rng))
		if err == nil {
			t.Fatalf("push %d into a fleet that never came up succeeded", attempt+1)
		}
		if errors.Is(err, parsvd.ErrEngineFailed) {
			t.Fatalf("push %d: a failed start poisoned the engine: %v", attempt+1, err)
		}
		if !errors.Is(err, parsvd.ErrStartFailed) {
			t.Fatalf("push %d: %v, want a failed start (ErrStartFailed)", attempt+1, err)
		}
		pids := spawned()
		if len(pids) <= seen {
			t.Fatalf("push %d spawned no worker", attempt+1)
		}
		seen = len(pids)
		for _, pid := range pids {
			// A zombie answers signal 0 too: only a reaped child fails it.
			if err := syscall.Kill(pid, 0); err == nil {
				t.Errorf("after push %d, worker pid %d is not reaped", attempt+1, pid)
			}
		}
	}
	if pids := parsvd.DistWorkerPIDs(svd); len(pids) != 0 {
		t.Fatalf("a failed start kept a session with workers %v", pids)
	}
	waitForGoroutineBaseline(t, before)
}

// TestDistributedDeadlineRefusalDoesNotPoison: an expired Fit deadline
// that refuses an operation before any frame reached the fleet is a
// clean context-style error — it must NOT wrap ErrEngineFailed, and the
// still-healthy fleet must keep serving once the deadline is lifted.
func TestDistributedDeadlineRefusalDoesNotPoison(t *testing.T) {
	if testing.Short() && os.Getenv("CI") == "" {
		t.Skip("short mode: skipping multi-process run")
	}
	rng := testutil.NewRand(12)
	svd := faultSVD(t)
	if err := svd.Push(testutil.RandomDense(32, 6, rng)); err != nil {
		t.Fatal(err)
	}

	parsvd.DistSetDeadline(svd, time.Now().Add(-time.Second))
	if _, err := svd.Result(); err == nil {
		t.Fatal("Result past the deadline did not error")
	} else if errors.Is(err, parsvd.ErrEngineFailed) {
		t.Fatalf("deadline refusal poisoned the engine: %v", err)
	}
	if err := svd.Save(new(discardWriter)); err == nil || errors.Is(err, parsvd.ErrEngineFailed) {
		t.Fatalf("Save past the deadline: %v, want a plain refusal", err)
	}
	if err := svd.Push(testutil.RandomDense(32, 6, rng)); err == nil || errors.Is(err, parsvd.ErrEngineFailed) {
		t.Fatalf("Push past the deadline: %v, want a plain refusal", err)
	}

	parsvd.DistSetDeadline(svd, time.Time{})
	if err := svd.Push(testutil.RandomDense(32, 6, rng)); err != nil {
		t.Fatalf("push after lifting the deadline: %v", err)
	}
	if _, err := svd.Result(); err != nil {
		t.Fatalf("result after lifting the deadline: %v", err)
	}
}

// TestDistributedCloseReapsFleet: a healthy Close shuts every worker down
// and leaves no goroutines behind; the SVD then refuses further work.
func TestDistributedCloseReapsFleet(t *testing.T) {
	if testing.Short() && os.Getenv("CI") == "" {
		t.Skip("short mode: skipping multi-process fault injection")
	}
	rng := testutil.NewRand(10)
	before := runtime.NumGoroutine()
	svd := faultSVD(t)
	if err := svd.Push(testutil.RandomDense(32, 6, rng)); err != nil {
		t.Fatal(err)
	}
	pids := parsvd.DistWorkerPIDs(svd)
	if err := svd.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for _, pid := range pids {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) && syscall.Kill(pid, 0) == nil {
			time.Sleep(20 * time.Millisecond)
		}
		if syscall.Kill(pid, 0) == nil {
			t.Errorf("worker pid %d survived Close", pid)
		}
	}
	if err := svd.Push(testutil.RandomDense(32, 6, rng)); err == nil {
		t.Fatal("push after Close did not error")
	}
	waitForGoroutineBaseline(t, before)
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// waitForGoroutineBaseline polls until the goroutine count settles back
// to (or near) the baseline, tolerating runtime background noise.
func waitForGoroutineBaseline(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		runtime.GC()
		n = runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Errorf("goroutines leaked: %d before, %d after\n%s", baseline, n, buf[:runtime.Stack(buf, true)])
}

package launch

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"goparsvd/internal/core"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/scaling"
	"goparsvd/internal/stream"
	"goparsvd/internal/testutil"
)

// sessionWorkload is a sub-second streaming job that still exercises
// every collective (APMOS init, TSQR exchange, broadcast, gather).
func sessionWorkload() scaling.StreamWorkload {
	return scaling.StreamWorkload{
		RowsPerRank: 64,
		Snapshots:   48,
		InitBatch:   12,
		Batch:       12,
		K:           6,
		FF:          0.95,
		Seed:        7,
	}
}

func startTestSession(t *testing.T, ranks int, w scaling.StreamWorkload) *Session {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("no Go toolchain to build parsvd-worker: %v", err)
	}
	s, err := StartSession(SessionConfig{
		Ranks: ranks,
		Spec:  EngineSpec{K: w.K, FF: w.FF},
	})
	if err != nil {
		t.Fatalf("starting session: %v", err)
	}
	return s
}

// pushWorkload feeds the workload's global batches into the session.
func pushWorkload(t *testing.T, s *Session, ranks int, w scaling.StreamWorkload) {
	t.Helper()
	bc := w.BurgersConfig(ranks)
	for col := 0; col < w.Snapshots; {
		width := w.Batch
		if col == 0 {
			width = w.InitBatch
		}
		hi := col + width
		if hi > w.Snapshots {
			hi = w.Snapshots
		}
		if err := s.Push(bc.Block(0, bc.Nx, col, hi)); err != nil {
			t.Fatalf("push [%d,%d): %v", col, hi, err)
		}
		col = hi
	}
}

// inProcess is rank 0's view of a workload streamed through core.Parallel
// on goroutine ranks: the spectrum, the gathered M×K modes and the update
// count.
type inProcess struct {
	Singular   []float64
	Modes      *mat.Dense
	Iterations int
}

// runInProcess streams w as pushWorkload batches it, through core.Parallel
// on ranks goroutine ranks over the in-process fabric, each rank holding
// the rows the session scatters to it.
func runInProcess(t *testing.T, ranks int, w scaling.StreamWorkload) inProcess {
	t.Helper()
	bc := w.BurgersConfig(ranks)
	parts := bc.Partition(ranks)
	var ref inProcess
	if _, err := mpi.Run(ranks, func(c *mpi.Comm) {
		r0, r1 := parts[c.Rank()][0], parts[c.Rank()][1]
		eng := core.NewParallel(c, EngineSpec{K: w.K, FF: w.FF}.Options())
		err := eng.Initialize(bc.Block(r0, r1, 0, w.InitBatch))
		for col := w.InitBatch; col < w.Snapshots && err == nil; col += w.Batch {
			err = eng.IncorporateData(bc.Block(r0, r1, col, min(col+w.Batch, w.Snapshots)))
		}
		var rows []*mat.Dense
		if err == nil {
			rows, err = eng.GatherModeRows()
		}
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			ref = inProcess{eng.SingularValues(), core.ModeMatrix(rows...), eng.Iterations()}
		}
	}); err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestSessionWireFedMatchesInProcess is the session-protocol acceptance
// test: a persistent 2-rank fleet fed real snapshot blocks over its stdin
// must reproduce the in-process channel-transport run of the identical
// batches bit for bit — spectrum and gathered-modes hash — and its SAVE
// checkpoint must load as a serial engine holding that exact state.
func TestSessionWireFedMatchesInProcess(t *testing.T) {
	const ranks = 2
	w := sessionWorkload()
	s := startTestSession(t, ranks, w)
	defer s.Close()
	pushWorkload(t, s, ranks, w)

	sha, singular, err := s.ModesSHA()
	if err != nil {
		t.Fatalf("modes sha: %v", err)
	}

	ref := runInProcess(t, ranks, w)
	if len(singular) != len(ref.Singular) {
		t.Fatalf("spectrum length %d, want %d", len(singular), len(ref.Singular))
	}
	for i := range singular {
		if math.Float64bits(singular[i]) != math.Float64bits(ref.Singular[i]) {
			t.Errorf("sigma[%d]: wire-fed %g differs from in-process %g", i, singular[i], ref.Singular[i])
		}
	}
	if want := HashModes(ref.Modes); sha != want {
		t.Errorf("modes hash: wire-fed %s, in-process %s", sha, want)
	}

	// The gathered checkpoint is a facade-compatible serial checkpoint of
	// exactly this state: rank 0 writes it straight from the gathered
	// state, and it encodes byte for byte to what a serial engine restored
	// from that state would save.
	saved, err := s.Save()
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	restored, err := stream.Restore(stream.Options{K: w.K, FF: w.FF}, ref.Modes, ref.Singular, ref.Iterations, w.Snapshots)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := core.WriteState(&want, core.State{
		Opts:       restored.Options(),
		ModeBlocks: []*mat.Dense{restored.ModeRows()},
		Singular:   restored.SingularValues(),
		Iterations: restored.Iterations(),
		Snapshots:  restored.SnapshotsSeen(),
	}); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := core.WriteState(&got, saved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("SAVE checkpoint (%d bytes) differs from the restored state's (%d bytes)", got.Len(), want.Len())
	}
	eng, err := stream.Restore(saved.Opts, saved.Modes, saved.Singular, saved.Iterations, saved.Snapshots)
	if err != nil {
		t.Fatalf("restoring gathered checkpoint: %v", err)
	}
	if got := eng.SingularValues(); !equalFloatsBits(got, singular) {
		t.Errorf("checkpoint spectrum differs from the live session's")
	}
	if r, c := eng.Modes().Dims(); r != w.RowsPerRank*ranks || c != w.K {
		t.Errorf("checkpoint modes are %dx%d, want %dx%d", r, c, w.RowsPerRank*ranks, w.K)
	}
	if eng.SnapshotsSeen() != w.Snapshots {
		t.Errorf("checkpoint snapshots = %d, want %d", eng.SnapshotsSeen(), w.Snapshots)
	}

	st := s.Stats()
	if st.Messages == 0 || st.Bytes == 0 {
		t.Errorf("session traffic counters empty: %+v", st)
	}
	if st.Snapshots != w.Snapshots || st.Rows != w.RowsPerRank*ranks {
		t.Errorf("session ingest counters: %+v", st)
	}
	wantIters := (w.Snapshots - w.InitBatch) / w.Batch
	if st.Iterations != wantIters {
		t.Errorf("session iterations = %d, want %d", st.Iterations, wantIters)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestFirstPushIsFirstExchange: StartSession only spawns — each rank's
// engine spec is on its command line — so the seeding PUSH is the fleet's
// first lockstep exchange, and it seeds the engine the spec describes.
func TestFirstPushIsFirstExchange(t *testing.T) {
	const ranks = 2
	w := sessionWorkload()
	s := startTestSession(t, ranks, w)
	defer s.Close()
	if ops := s.Stats().Ops; ops != 0 {
		t.Fatalf("StartSession ran %d exchanges, want 0", ops)
	}
	bc := w.BurgersConfig(ranks)
	if err := s.Push(bc.Block(0, bc.Nx, 0, w.InitBatch)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Ops != 1 || st.Snapshots != w.InitBatch || st.Rows != bc.Nx {
		t.Fatalf("after StartSession and the first Push: %+v, want 1 exchange, %d snapshots, %d rows", st, w.InitBatch, bc.Nx)
	}
	_, singular, err := s.ModesSHA()
	if err != nil {
		t.Fatal(err)
	}
	if len(singular) != w.K {
		t.Fatalf("seeded %d singular values, want K = %d", len(singular), w.K)
	}
}

// TestSessionRejectsBadBatchesWithoutPoisoning: a push refused before any
// frame reaches a worker — here past an expired hard deadline — leaves the
// fleet healthy. The caller validates batches; the parsvd facade's
// TestConformanceRejectsNonFinite and TestCheckBatchNonFinite cover that.
func TestSessionRejectsBadBatchesWithoutPoisoning(t *testing.T) {
	const ranks = 2
	w := sessionWorkload()
	s := startTestSession(t, ranks, w)
	defer s.Close()
	bc := w.BurgersConfig(ranks)
	if err := s.Push(bc.Block(0, bc.Nx, 0, w.InitBatch)); err != nil {
		t.Fatal(err)
	}

	// An expired hard deadline (a Fit context deadline mapped down by the
	// facade) refuses the operation before any frame is written: the
	// session survives and resumes once the deadline is lifted.
	s.SetDeadline(time.Now().Add(-time.Second))
	if err := s.Push(bc.Block(0, bc.Nx, w.InitBatch, w.InitBatch+4)); err == nil {
		t.Fatal("push past the hard deadline did not error")
	}
	if s.Failed() != nil {
		t.Fatalf("expired deadline poisoned the session: %v", s.Failed())
	}
	s.SetDeadline(time.Time{})
	if err := s.Push(bc.Block(0, bc.Nx, w.InitBatch, w.InitBatch+4)); err != nil {
		t.Fatalf("push after lifting the deadline: %v", err)
	}
}

// TestSessionWorkerDeathFailsFast: SIGKILLing one rank mid-stream must
// fail the next operation promptly (not hang until some large timeout),
// reap the whole fleet, leave the session permanently failed, and leak no
// goroutines.
func TestSessionWorkerDeathFailsFast(t *testing.T) {
	const ranks = 2
	w := sessionWorkload()
	before := runtime.NumGoroutine()
	s := startTestSession(t, ranks, w)
	bc := w.BurgersConfig(ranks)
	if err := s.Push(bc.Block(0, bc.Nx, 0, w.InitBatch)); err != nil {
		t.Fatalf("seed push: %v", err)
	}

	pids := s.WorkerPIDs()
	if len(pids) != ranks || pids[1] == 0 {
		t.Fatalf("worker pids: %v", pids)
	}
	if err := syscall.Kill(pids[1], syscall.SIGKILL); err != nil {
		t.Fatalf("killing rank 1: %v", err)
	}

	start := time.Now()
	err := s.Push(bc.Block(0, bc.Nx, w.InitBatch, w.InitBatch+w.Batch))
	if err == nil {
		t.Fatal("push into a dead fleet did not error")
	}
	// The cause is rank 1's death, not rank 0's echo of the abort it saw.
	if !strings.Contains(err.Error(), "rank 1") || strings.Contains(err.Error(), mpi.ErrAborted.Error()) {
		t.Fatalf("push error %v does not name the killed rank", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("failure took %v to surface; want fast detection, not a timeout crawl", elapsed)
	}
	if s.Failed() == nil {
		t.Fatal("worker death did not permanently fail the session")
	}
	// The failure is sticky: every later operation reports it immediately.
	if _, _, err2 := s.ModesSHA(); err2 == nil {
		t.Fatal("modes sha on a failed session did not error")
	}
	if _, err2 := s.Save(); err2 == nil {
		t.Fatal("save on a failed session did not error")
	}

	// The whole fleet (rank 0 included) is reaped: signal 0 probes fail.
	deadline := time.Now().Add(10 * time.Second)
	for _, pid := range pids {
		for time.Now().Before(deadline) {
			if syscall.Kill(pid, 0) != nil {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if syscall.Kill(pid, 0) == nil {
			t.Errorf("worker pid %d still alive after session failure", pid)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close after failure: %v", err)
	}

	// No goroutines leaked by the session (reader loops, writers).
	waitForGoroutines(t, before)
}

// TestSessionCommandWriteDeadline: OpTimeout bounds the command write as
// well as the reply. A rank that stops reading its stdin (SIGSTOP) while
// it is sent a PUSH frame larger than its pipe (1.28 MB, over the 1 MiB a
// pipe grows to) must fail the push within OpTimeout, reap the fleet and
// leave no child process.
func TestSessionCommandWriteDeadline(t *testing.T) {
	const opTimeout = 2 * time.Second
	s, err := StartSession(SessionConfig{
		Ranks:     2,
		WorkerBin: testWorker(t),
		Spec:      EngineSpec{K: 4, FF: 1},
		OpTimeout: opTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pids := s.WorkerPIDs()
	if err := syscall.Kill(pids[1], syscall.SIGSTOP); err != nil {
		t.Fatalf("stopping rank 1: %v", err)
	}
	batch := testutil.RandomDense(40000, 8, testutil.NewRand(9))

	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- s.Push(batch) }()
	select {
	case err = <-done:
	case <-time.After(opTimeout + 10*time.Second):
		for _, pid := range pids {
			syscall.Kill(pid, syscall.SIGKILL) // unblock the stuck write
		}
		<-done
		t.Fatal("Push to a rank that stopped reading its stdin blocked past the operation timeout")
	}
	if elapsed := time.Since(start); err == nil || elapsed > opTimeout+2*time.Second {
		t.Fatalf("Push returned %v after %v, want an error within %v", err, elapsed, opTimeout+2*time.Second)
	}
	if s.Failed() == nil {
		t.Fatal("a timed-out command write did not fail the session")
	}
	for _, pid := range pids {
		if syscall.Kill(pid, 0) == nil {
			t.Errorf("worker pid %d still alive after the session failed", pid)
		}
	}
}

// TestSessionCloseLeavesNoGoroutines: a clean start→push→close cycle
// returns the process to its previous goroutine count.
func TestSessionCloseLeavesNoGoroutines(t *testing.T) {
	const ranks = 2
	w := sessionWorkload()
	before := runtime.NumGoroutine()
	s := startTestSession(t, ranks, w)
	bc := w.BurgersConfig(ranks)
	if err := s.Push(bc.Block(0, bc.Nx, 0, w.InitBatch)); err != nil {
		t.Fatalf("push: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := s.Push(bc.Block(0, bc.Nx, 0, 4)); err == nil {
		t.Fatal("push after close did not error")
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines polls until the goroutine count settles back to (or
// below) the baseline, tolerating runtime background noise.
func waitForGoroutines(t *testing.T, baseline int) {
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

// TestSessionPushAndDecodeNonFinite drives the worker's block reader, the
// launch-side finiteness check on bytes from another process, with NaN,
// +Inf and −Inf at every position of batches of every tail length.
func TestSessionPushAndDecodeNonFinite(t *testing.T) {
	testutil.ForEachNonFinite(func(x []float64, bad int) {
		b := mat.NewFromData(len(x), 1, x)
		want := fmt.Sprintf("mat: snapshot block contains a non-finite value (%g) at index %d", x[bad], bad)
		if _, err := readBlock(blockBody(b)); err == nil || err.Error() != want {
			t.Fatalf("block reader len %d, %g at %d: err = %v, want %q", len(x), x[bad], bad, err, want)
		}
	})
}

// TestSessionPushAllocatesNoBody: Push writes each rank's PUSH frame from a
// row view of the batch, and PushSketch each rank's PUSH-SKETCH frame from
// a row view of Q and the whole S, through the rank's fixed scratch
// buffer; the launcher neither builds nor checks a rank's block Q_r·S
// (the facade rebuilt and checked it), so it allocates far less per push
// than one rank's 256 KiB block at the fit-distributed shape (M = 4096,
// B = 16, two ranks; sketch rank L = 4).
func TestSessionPushAllocatesNoBody(t *testing.T) {
	const m, b, l, pushes = 4096, 16, 4, 8
	s := startTestSession(t, 2, scaling.StreamWorkload{K: 16, FF: 1})
	defer s.Close()
	rng := testutil.NewRand(3)
	batches := make([]*mat.Dense, pushes+2)
	for i := range batches {
		batches[i] = testutil.RandomDense(m, b, rng)
	}
	qs, sks := make([]*mat.Dense, pushes+1), make([]*mat.Dense, pushes+1)
	for i := range qs {
		qs[i], sks[i] = testutil.RandomDense(m, l, rng), testutil.RandomDense(l, b, rng)
	}
	// Seed, then one warm update of each kind.
	for _, batch := range batches[:2] {
		if err := s.Push(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PushSketch(qs[pushes], sks[pushes]); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		push func(i int) error
	}{
		{"Push", func(i int) error { return s.Push(batches[2+i]) }},
		{"PushSketch", func(i int) error { return s.PushSketch(qs[i], sks[i]) }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < pushes; i++ {
			if err := tc.push(i); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perPush := (after.TotalAlloc - before.TotalAlloc) / pushes
		t.Logf("%s: %d bytes allocated per push", tc.name, perPush)
		if perPush > 32<<10 {
			t.Errorf("Session.%s allocated %d bytes per push, want no per-rank body (< 32 KiB)", tc.name, perPush)
		}
	}
}

// TestDiscardedStderrAddsOnlyReaders: a fleet whose stderr is io.Discard
// sends it to /dev/null instead of through a pipe and a copying goroutine,
// so a two-rank session adds exactly its two frame readers.
func TestDiscardedStderrAddsOnlyReaders(t *testing.T) {
	bin := testWorker(t)
	before := settledGoroutines()
	s, err := StartSession(SessionConfig{Ranks: 2, WorkerBin: bin, Spec: EngineSpec{K: 2, FF: 1}, Stderr: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := settledGoroutines(); got != before+2 {
		t.Fatalf("a 2-rank fleet added %d goroutines, want 2 (the frame readers)", got-before)
	}
}

// settledGoroutines waits briefly for goroutines that are on their way
// out (a finished write fan-out) and returns the count.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

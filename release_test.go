package parsvd_test

// A closed in-process SVD hands its engine buffer to the next bring-up in
// the process (stream.SVD.Release). These tests pin what that must not
// change: every result bit, whatever the released buffer held, and the
// memory a bring-up after a Close allocates.

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	parsvd "goparsvd"
	"goparsvd/internal/launch"
	"goparsvd/internal/stream"
	"goparsvd/internal/testutil"
)

// resultDigest is a Result's spectrum, bit for bit, and its modes' hash:
// the fingerprint a Distributed Result carries in place of its modes.
func resultDigest(r *parsvd.Result) string {
	sha := r.ModesSHA256
	if r.Modes != nil {
		sha = launch.HashModes(r.Modes)
	}
	return fmt.Sprintf("spectrum=%x modes=%s", r.Singular, sha)
}

// pushBatches pushes each batch to svd and returns its Result.
func pushBatches(t *testing.T, svd *parsvd.SVD, batches ...*parsvd.Matrix) *parsvd.Result {
	t.Helper()
	for _, b := range batches {
		if err := svd.Push(b); err != nil {
			t.Fatal(err)
		}
	}
	res, err := svd.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBringUpAfterCloseMatchesFreshEngine: an SVD brought up after
// another was closed starts from the closed engine's buffer, filled with
// NaN here (stream.PoisonReleased), and still gives the spectrum and modes
// of an SVD brought up with the pool empty, as in a fresh process, bit
// for bit. That holds on Serial, on Parallel over 2 and 3 row blocks
// (which still match a Distributed fleet), and through a Merge, whose
// absorb grows into a released buffer. A Result taken before the Close
// stays as it was after its engine's buffer is reused. GC is off and one
// P runs while the pool must keep what it was given; under the race
// detector, whose pool drops some of it, only the bits are checked.
func TestBringUpAfterCloseMatchesFreshEngine(t *testing.T) {
	// 301 rows split unevenly over 2 and 3 blocks; the 12-wide second
	// batch grows each engine's buffer past the first batch's K+8 rows.
	a, _ := testutil.RandomLowRank(301, 44, 9, 1e-6, testutil.NewRand(61))
	batches := []*parsvd.Matrix{a.SliceCols(0, 8), a.SliceCols(8, 20), a.SliceCols(20, 28)}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer stream.PoisonReleased(stream.PoisonReleased(true))
	emptyPool := func() { runtime.GC(); runtime.GC() } // a pooled buffer survives one collection

	for _, c := range []struct {
		name    string
		backend parsvd.Backend
		ranks   int
	}{{"serial", parsvd.Serial, 1}, {"parallel/2", parsvd.Parallel, 2}, {"parallel/3", parsvd.Parallel, 3}} {
		t.Run(c.name, func(t *testing.T) {
			emptyPool()
			ref := newConfSVD(t, c.backend, c.ranks)
			refRes := pushBatches(t, ref, batches...)
			want := resultDigest(refRes)
			released := parsvd.ModeStorage(ref)
			if err := ref.Close(); err != nil {
				t.Fatal(err)
			}

			svd := newConfSVD(t, c.backend, c.ranks)
			pushBatches(t, svd, batches[0])
			if !raceEnabled && parsvd.ModeStorage(svd) != released {
				t.Fatal("the bring-up after a Close did not start from the closed engine's buffer")
			}
			res := pushBatches(t, svd, batches[1:]...)
			if got := resultDigest(res); got != want {
				t.Fatalf("after a Close: %s\nfresh engine:  %s", got, want)
			}
			if got := resultDigest(refRes); got != want {
				t.Fatalf("a Result taken before the Close changed when its buffer was reused: %s, was %s", got, want)
			}
			if c.backend != parsvd.Parallel {
				return
			}
			t.Run("distributed", func(t *testing.T) {
				skipWithoutFleet(t)
				dres := pushBatches(t, newConfSVD(t, parsvd.Distributed, c.ranks), batches...)
				if got := resultDigest(dres); got != want {
					t.Fatalf("distributed: %s\nparallel:    %s", got, want)
				}
			})
		})
	}

	t.Run("merge", func(t *testing.T) {
		shard := newConfSVD(t, parsvd.Serial, 1)
		pushBatches(t, shard, a.SliceCols(28, 36), a.SliceCols(36, 44))
		var ckpt bytes.Buffer
		if err := shard.Save(&ckpt); err != nil {
			t.Fatal(err)
		}
		// merged fits a Parallel model, merges the shard into it and
		// returns the model, its Result and the buffers of its engine
		// before and after the merge.
		merged := func() (svd *parsvd.SVD, res *parsvd.Result, before, after *float64) {
			svd = newConfSVD(t, parsvd.Parallel, 2)
			pushBatches(t, svd, a.SliceCols(0, 8), a.SliceCols(8, 16))
			before = parsvd.ModeStorage(svd)
			if err := svd.Merge(bytes.NewReader(ckpt.Bytes())); err != nil {
				t.Fatal(err)
			}
			res, err := svd.Result()
			if err != nil {
				t.Fatal(err)
			}
			return svd, res, before, parsvd.ModeStorage(svd)
		}

		emptyPool()
		ref, refRes, replaced, grown := merged()
		want := resultDigest(refRes)
		// The merge released the Parallel engine it replaced; this Close
		// releases the merged engine, whose absorb grew a buffer.
		if err := ref.Close(); err != nil {
			t.Fatal(err)
		}
		_, res, _, buf := merged()
		if !raceEnabled && buf != replaced && buf != grown {
			t.Fatal("the merge's absorb after a Close did not grow into a released buffer")
		}
		if got := resultDigest(res); got != want {
			t.Fatalf("merged after a Close: %s\nfresh engines:      %s", got, want)
		}
		if got := resultDigest(refRes); got != want {
			t.Fatalf("a Result taken before the Close changed when its buffer was reused: %s, was %s", got, want)
		}
	})
}

// TestBringUpFootprint pins what New, the first Push and Close allocate
// at fit-serial's shape (M = 4096, K = B = 16): a cold bring-up, with the
// pool empty, is the (K+B)×M buffer plus at most 64 KiB, and each of the
// 19 bring-ups after a Close at most 64 KiB. TotalAlloc counts every
// allocation of the process, with GC off while it is read; one P runs so
// the pool hands back what it was given.
func TestBringUpFootprint(t *testing.T) {
	const rows, batch, modes, cycles = 4096, 16, 16, 20
	const slack = 64 << 10
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers and its instrumentation allocates")
	}
	first := testutil.RandomDense(rows, batch, testutil.NewRand(31))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	bringUp := func() {
		svd, err := parsvd.New(parsvd.WithModes(modes), parsvd.WithForgetFactor(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := svd.Push(first); err != nil {
			t.Fatal(err)
		}
		if err := svd.Close(); err != nil {
			t.Fatal(err)
		}
	}
	bringUp() // the process's one-time setup (the kernel pool) is not a bring-up's
	runtime.GC()
	runtime.GC() // the pool is empty: the next bring-up is cold
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	for i := 0; i < cycles; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		bringUp()
		runtime.ReadMemStats(&ms)
		limit, kind := uint64(slack), "after a Close"
		if i == 0 {
			limit, kind = (modes+batch)*rows*8+slack, "cold"
		}
		if got := ms.TotalAlloc - before; got > limit {
			t.Errorf("bring-up %d (%s) allocated %d B, want at most %d", i+1, kind, got, limit)
		}
	}
}

// TestConcurrentBringUpsMatchSequential: 8 goroutines each run 50
// New/Push/Result/Close cycles over Serial and Parallel at two row counts,
// so released buffers pass between goroutines and between shapes (a
// 160-row buffer is within twice a 96-row need). Every cycle must give
// the result a sequential run of its configuration gave, bit for bit.
// Released buffers are filled with NaN, so a cycle that read another's
// stale contents would not.
func TestConcurrentBringUpsMatchSequential(t *testing.T) {
	const goroutines, cycles = 8, 50
	type config struct {
		backend     parsvd.Backend
		ranks, rows int
	}
	configs := []config{{parsvd.Serial, 1, 96}, {parsvd.Serial, 1, 160}, {parsvd.Parallel, 2, 96}, {parsvd.Parallel, 2, 160}}
	a := testutil.RandomDense(160, 12, testutil.NewRand(71))
	bringUp := func(c config) (string, error) {
		svd, err := parsvd.New(parsvd.WithModes(4), parsvd.WithForgetFactor(0.95),
			parsvd.WithBackend(c.backend), parsvd.WithRanks(c.ranks))
		if err != nil {
			return "", err
		}
		defer svd.Close()
		x := a.SliceRows(0, c.rows)
		for _, b := range []*parsvd.Matrix{x.SliceCols(0, 6), x.SliceCols(6, 12)} {
			if err := svd.Push(b); err != nil {
				return "", err
			}
		}
		res, err := svd.Result()
		if err != nil {
			return "", err
		}
		return resultDigest(res), svd.Close()
	}
	want := make([]string, len(configs))
	for i, c := range configs {
		var err error
		if want[i], err = bringUp(c); err != nil {
			t.Fatal(err)
		}
	}

	defer stream.PoisonReleased(stream.PoisonReleased(true))
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				c := (g + i) % len(configs)
				got, err := bringUp(configs[c])
				if err == nil && got != want[c] {
					err = fmt.Errorf("goroutine %d cycle %d, %+v: %s\nsequential: %s", g, i, configs[c], got, want[c])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

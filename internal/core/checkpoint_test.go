package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/testutil"
)

func TestSerialCheckpointRoundTrip(t *testing.T) {
	rng := testutil.NewRand(31)
	a, _ := testutil.RandomLowRank(50, 20, 4, 1e-7, rng)
	eng := NewSerial(Options{K: 4, ForgetFactor: 0.95})
	eng.Initialize(a.SliceCols(0, 10))
	eng.IncorporateData(a.SliceCols(10, 15))

	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSerial(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if !mat.EqualApprox(eng.Modes(), restored.Modes(), 0) {
		t.Fatal("modes differ after restore")
	}
	if !testutil.CloseSlices(eng.SingularValues(), restored.SingularValues(), 0) {
		t.Fatal("singular values differ after restore")
	}
	if restored.Iterations() != 1 || restored.SnapshotsSeen() != 15 {
		t.Fatalf("counters: iters=%d snaps=%d", restored.Iterations(), restored.SnapshotsSeen())
	}

	// The restored engine must continue the stream identically.
	eng.IncorporateData(a.SliceCols(15, 20))
	restored.IncorporateData(a.SliceCols(15, 20))
	if !mat.EqualApprox(eng.Modes(), restored.Modes(), 1e-13) {
		t.Fatal("continuation diverged after restore")
	}
}

func TestSerialCheckpointPreservesOptions(t *testing.T) {
	rng := testutil.NewRand(32)
	eng := NewSerial(Options{K: 3, ForgetFactor: 0.9, LowRank: true})
	eng.Initialize(testutil.RandomDense(20, 6, rng))
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSerial(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.opts.K != 3 || restored.opts.ForgetFactor != 0.9 || !restored.opts.LowRank {
		t.Fatalf("options not preserved: %+v", restored.opts)
	}
}

func TestParallelCheckpointRoundTrip(t *testing.T) {
	rng := testutil.NewRand(33)
	a, _ := testutil.RandomLowRank(60, 16, 4, 1e-7, rng)
	const p = 2
	blocks := splitRows(a, p)
	opts := Options{K: 3, ForgetFactor: 1, R1: 16}

	// Phase 1: run halfway and checkpoint each rank.
	checkpoints := make([]*bytes.Buffer, p)
	var mu sync.Mutex
	mpi.MustRun(p, func(c *mpi.Comm) {
		eng := NewParallel(c, opts)
		eng.Initialize(blocks[c.Rank()].SliceCols(0, 8))
		var buf bytes.Buffer
		if err := eng.Save(&buf); err != nil {
			panic(err)
		}
		mu.Lock()
		checkpoints[c.Rank()] = &buf
		mu.Unlock()
	})

	// Phase 2: restore into a fresh world and continue; compare with an
	// uninterrupted run.
	restoredVals := make([][]float64, p)
	mpi.MustRun(p, func(c *mpi.Comm) {
		eng, err := LoadParallel(c, checkpoints[c.Rank()])
		if err != nil {
			panic(err)
		}
		eng.IncorporateData(blocks[c.Rank()].SliceCols(8, 16))
		mu.Lock()
		restoredVals[c.Rank()] = append([]float64(nil), eng.SingularValues()...)
		mu.Unlock()
	})

	uninterrupted := make([][]float64, p)
	mpi.MustRun(p, func(c *mpi.Comm) {
		eng := NewParallel(c, opts)
		eng.Initialize(blocks[c.Rank()].SliceCols(0, 8))
		eng.IncorporateData(blocks[c.Rank()].SliceCols(8, 16))
		mu.Lock()
		uninterrupted[c.Rank()] = append([]float64(nil), eng.SingularValues()...)
		mu.Unlock()
	})

	for r := 0; r < p; r++ {
		if !testutil.CloseSlices(restoredVals[r], uninterrupted[r], 1e-12) {
			t.Fatalf("rank %d diverged: %v vs %v", r, restoredVals[r], uninterrupted[r])
		}
	}
}

func TestLoadSerialRejectsGarbage(t *testing.T) {
	_, err := LoadSerial(bytes.NewReader([]byte("not a checkpoint at all")))
	if !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("err = %v, want ErrBadCheckpoint", err)
	}
}

func TestLoadSerialRejectsTruncation(t *testing.T) {
	rng := testutil.NewRand(34)
	eng := NewSerial(Options{K: 2, ForgetFactor: 1})
	eng.Initialize(testutil.RandomDense(10, 4, rng))
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 3, 5, 20, len(full) - 8} {
		if _, err := LoadSerial(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
}

func TestLoadSerialRejectsBadVersion(t *testing.T) {
	rng := testutil.NewRand(35)
	eng := NewSerial(Options{K: 2, ForgetFactor: 1})
	eng.Initialize(testutil.RandomDense(10, 4, rng))
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 99 // corrupt the version byte
	if _, err := LoadSerial(bytes.NewReader(raw)); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("bad version: err = %v", err)
	}
}

func TestSaveBeforeInitializePanics(t *testing.T) {
	eng := NewSerial(Options{K: 2, ForgetFactor: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("Save before Initialize did not panic")
		}
	}()
	var buf bytes.Buffer
	_ = eng.Save(&buf)
}

func TestLoadParallelNeedsComm(t *testing.T) {
	if _, err := LoadParallel(nil, bytes.NewReader(nil)); err == nil {
		t.Fatal("nil communicator accepted")
	}
}

// TestSerialSaveLoadContinuesBitIdentical saves the mode-major engine,
// loads it back and keeps streaming both: every later update — including
// the first, which regrows the loaded K×M buffer, and batches of varying
// width — must leave modes and spectrum bit-identical to the
// uninterrupted stream's. The checkpoint bytes must also equal those of
// the same state written from its M×K modes.
func TestSerialSaveLoadContinuesBitIdentical(t *testing.T) {
	rng := testutil.NewRand(35)
	for _, ff := range []float64{1, 0.95} {
		eng := NewSerial(Options{K: 6, ForgetFactor: ff})
		eng.Initialize(testutil.RandomDense(70, 4, rng))
		for _, b := range []int{4, 9, 3} {
			eng.IncorporateData(testutil.RandomDense(70, b, rng))
		}
		var buf bytes.Buffer
		if err := eng.Save(&buf); err != nil {
			t.Fatal(err)
		}
		var fromModes bytes.Buffer
		if err := WriteState(&fromModes, State{
			Opts:       eng.Options(),
			Modes:      eng.Modes(),
			Singular:   eng.SingularValues(),
			Iterations: eng.Iterations(),
			Snapshots:  eng.SnapshotsSeen(),
		}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), fromModes.Bytes()) {
			t.Fatal("mode-major save differs from the M×K layout's bytes")
		}
		restored, err := LoadSerial(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range []int{5, 5, 12, 2, 7} {
			a := testutil.RandomDense(70, b, rng)
			eng.IncorporateData(a)
			restored.IncorporateData(a)
			if !mat.EqualApprox(eng.ModeRows(), restored.ModeRows(), 0) ||
				!testutil.CloseSlices(eng.SingularValues(), restored.SingularValues(), 0) {
				t.Fatalf("ff = %g, update %d after the load: stream diverged", ff, i+1)
			}
		}
	}
}

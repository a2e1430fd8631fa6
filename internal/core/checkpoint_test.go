package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"goparsvd/internal/mat"
	"goparsvd/internal/stream"
	"goparsvd/internal/testutil"
)

// save writes eng's checkpoint, as the facade's serial backend does.
func save(w io.Writer, eng *stream.SVD) error {
	return WriteState(w, State{
		Opts:       eng.Options(),
		ModeBlocks: []*mat.Dense{eng.ModeRows()}, // panics if eng is not initialized
		Singular:   eng.SingularValues(),
		Iterations: eng.Iterations(),
		Snapshots:  eng.SnapshotsSeen(),
	})
}

// load reads a checkpoint back into a serial engine, as parsvd.Load does.
func load(r io.Reader) (*stream.SVD, error) {
	st, err := ReadState(r)
	if err != nil {
		return nil, err
	}
	eng, err := stream.Restore(st.Opts, st.Modes, st.Singular, st.Iterations, st.Snapshots)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	return eng, nil
}

func TestSerialCheckpointRoundTrip(t *testing.T) {
	rng := testutil.NewRand(31)
	a, _ := testutil.RandomLowRank(50, 20, 4, 1e-7, rng)
	eng := stream.New(stream.Options{K: 4, FF: 0.95})
	must(eng.Initialize(a.SliceCols(0, 10)))
	must(eng.IncorporateData(a.SliceCols(10, 15)))

	var buf bytes.Buffer
	if err := save(&buf, eng); err != nil {
		t.Fatal(err)
	}
	restored, err := load(&buf)
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
	must(eng.IncorporateData(a.SliceCols(15, 20)))
	must(restored.IncorporateData(a.SliceCols(15, 20)))
	if !mat.EqualApprox(eng.Modes(), restored.Modes(), 1e-13) {
		t.Fatal("continuation diverged after restore")
	}
}

func TestSerialCheckpointPreservesOptions(t *testing.T) {
	rng := testutil.NewRand(32)
	eng := stream.New(stream.Options{K: 3, FF: 0.9, LowRank: true})
	must(eng.Initialize(testutil.RandomDense(20, 6, rng)))
	var buf bytes.Buffer
	if err := save(&buf, eng); err != nil {
		t.Fatal(err)
	}
	st, err := ReadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Opts.K != 3 || st.Opts.FF != 0.9 || !st.Opts.LowRank {
		t.Fatalf("options not preserved: %+v", st.Opts)
	}
}

func TestLoadSerialRejectsGarbage(t *testing.T) {
	_, err := load(bytes.NewReader([]byte("not a checkpoint at all")))
	if !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("err = %v, want ErrBadCheckpoint", err)
	}
}

func TestLoadSerialRejectsTruncation(t *testing.T) {
	rng := testutil.NewRand(34)
	eng := stream.New(stream.Options{K: 2, FF: 1})
	must(eng.Initialize(testutil.RandomDense(10, 4, rng)))
	var buf bytes.Buffer
	if err := save(&buf, eng); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 3, 5, 20, len(full) - 8} {
		if _, err := load(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
}

func TestLoadSerialRejectsBadVersion(t *testing.T) {
	rng := testutil.NewRand(35)
	eng := stream.New(stream.Options{K: 2, FF: 1})
	must(eng.Initialize(testutil.RandomDense(10, 4, rng)))
	var buf bytes.Buffer
	if err := save(&buf, eng); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 99 // corrupt the version byte
	if _, err := load(bytes.NewReader(raw)); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("bad version: err = %v", err)
	}
}

func TestSaveBeforeInitializePanics(t *testing.T) {
	eng := stream.New(stream.Options{K: 2, FF: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("Save before Initialize did not panic")
		}
	}()
	var buf bytes.Buffer
	_ = save(&buf, eng)
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
		eng := stream.New(stream.Options{K: 6, FF: ff})
		must(eng.Initialize(testutil.RandomDense(70, 4, rng)))
		for _, b := range []int{4, 9, 3} {
			must(eng.IncorporateData(testutil.RandomDense(70, b, rng)))
		}
		var buf bytes.Buffer
		if err := save(&buf, eng); err != nil {
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
		restored, err := load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range []int{5, 5, 12, 2, 7} {
			a := testutil.RandomDense(70, b, rng)
			must(eng.IncorporateData(a))
			must(restored.IncorporateData(a))
			if !mat.EqualApprox(eng.ModeRows(), restored.ModeRows(), 0) ||
				!testutil.CloseSlices(eng.SingularValues(), restored.SingularValues(), 0) {
				t.Fatalf("ff = %g, update %d after the load: stream diverged", ff, i+1)
			}
		}
	}
}

// TestStateEncodedLen: EncodedLen predicts WriteState's output exactly,
// for both versions and every mode layout.
func TestStateEncodedLen(t *testing.T) {
	modes := testutil.RandomDense(7, 3, testutil.NewRand(4))
	for _, st := range []State{
		{Opts: stream.Options{K: 3, FF: 1}, Modes: modes, Singular: []float64{3, 2, 1}, Snapshots: 3},
		{Opts: stream.Options{K: 3, FF: 1}, ModeBlocks: []*mat.Dense{modes.T()}, Singular: []float64{3, 2, 1}, Snapshots: 3},
		{Opts: stream.Options{K: 3, FF: 1}, ModeBlocks: []*mat.Dense{modes.SliceRows(0, 4).T(), modes.SliceRows(4, 7).T()},
			Singular: []float64{3, 2, 1}, Snapshots: 3},
		{Opts: stream.Options{K: 3, FF: 1}, Modes: modes, Singular: []float64{3, 2, 1}, Snapshots: 3,
			Shard: ShardID{Index: 1, Count: 2}},
	} {
		var buf bytes.Buffer
		if err := WriteState(&buf, st); err != nil {
			t.Fatal(err)
		}
		if got := st.EncodedLen(); got != buf.Len() {
			t.Fatalf("EncodedLen = %d, WriteState wrote %d bytes (shard %v)", got, buf.Len(), st.Shard)
		}
	}
}

// TestStateModeBlocks: the modes held as mode-major column blocks, as a
// parallel gather leaves them, write the bytes the M×K matrix writes, and
// ReadStateExact reads them back; a StateWriter writes them again without
// allocating, and blocks of unequal height are refused.
func TestStateModeBlocks(t *testing.T) {
	modes := testutil.RandomDense(9, 3, testutil.NewRand(5))
	base := State{Opts: stream.Options{K: 4, FF: 0.9}, Singular: []float64{3, 2, 1}, Iterations: 2, Snapshots: 8}
	whole, blocks := base, base
	whole.Modes = modes
	blocks.ModeBlocks = []*mat.Dense{modes.SliceRows(0, 2).T(), modes.SliceRows(2, 8).T(), modes.SliceRows(8, 9).T()}
	var want, got bytes.Buffer
	if err := WriteState(&want, whole); err != nil {
		t.Fatal(err)
	}
	if err := WriteState(&got, blocks); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("mode blocks write other bytes than the M×K modes")
	}
	st, err := ReadStateExact(bytes.NewReader(got.Bytes()), got.Len())
	if err != nil || !mat.EqualApprox(st.Modes, modes, 0) {
		t.Fatalf("ReadStateExact: %v", err)
	}
	for _, n := range []int{got.Len() - 1, got.Len() + 1} {
		if _, err := ReadStateExact(bytes.NewReader(got.Bytes()), n); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("ReadStateExact of a %d-byte checkpoint as %d bytes: %v", got.Len(), n, err)
		}
	}
	var sw StateWriter
	if n := testing.AllocsPerRun(10, func() { sw.WriteState(io.Discard, blocks) }); n != 0 {
		t.Fatalf("a reused StateWriter allocates %v times, want 0", n)
	}
	blocks.ModeBlocks = append(blocks.ModeBlocks, mat.New(2, 1))
	if err := WriteState(io.Discard, blocks); err == nil {
		t.Fatal("blocks of unequal height were written")
	}
}

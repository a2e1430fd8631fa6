package parsvd_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	parsvd "goparsvd"

	"goparsvd/internal/core"
	"goparsvd/internal/mat"
	"goparsvd/internal/rla"
	"goparsvd/internal/stream"
	"goparsvd/internal/testutil"
)

var updateGolden = flag.Bool("update-golden", false,
	"regenerate the writer's golden file from the current internal/core checkpoint writer")

// The committed checkpoint fixtures. loadOnlyGolden was written when the
// r1 slot still carried APMOS's gather truncation (50) and is kept byte
// for byte as an old checkpoint every reader must load; writerGolden pins
// what the writer emits for the same state, which differs from it only in
// that slot, now reserved and written as 0.
var (
	loadOnlyGolden = filepath.Join("testdata", "checkpoint_v1_serial.golden")
	writerGolden   = filepath.Join("testdata", "checkpoint_v1_serial_writer.golden")
)

// goldenState is the deterministic engine state behind the committed
// checkpoint fixtures. Both the generator (-update-golden) and the
// verifier derive it from the same formulas, so the committed bytes pin
// the on-disk format, not the values.
func goldenState() (stream.Options, *mat.Dense, []float64, int, int) {
	opts := stream.Options{
		K:       3,
		FF:      0.95,
		LowRank: true,
		RLA:     rla.Options{Oversample: 5, PowerIters: 2, Seed: 42},
	}
	modes := mat.New(6, 3)
	for i := 0; i < 6; i++ {
		for j := 0; j < 3; j++ {
			modes.Set(i, j, math.Sin(float64(i+1))*float64(j+1)/10)
		}
	}
	singular := []float64{3.5, 2.25, 1.125}
	return opts, modes, singular, 4, 9
}

// goldenBytes is goldenState as a serial engine restored from it saves
// it: the validated state through internal/core's writer.
func goldenBytes(t *testing.T) []byte {
	t.Helper()
	opts, modes, singular, iters, snaps := goldenState()
	eng, err := stream.Restore(opts, modes, singular, iters, snaps)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.WriteState(&buf, core.State{
		Opts:       opts,
		ModeBlocks: []*mat.Dense{eng.ModeRows()},
		Singular:   eng.SingularValues(),
		Iterations: eng.Iterations(),
		Snapshots:  eng.SnapshotsSeen(),
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenCheckpointBackwardCompat proves parsvd.Load reads checkpoint
// files written by the internal/core writer, byte-for-byte as committed:
// a facade release must keep loading engine-written checkpoints from
// before the facade existed, including the old fixture whose r1 slot
// carries 50.
func TestGoldenCheckpointBackwardCompat(t *testing.T) {
	if *updateGolden {
		buf := goldenBytes(t)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(writerGolden, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", writerGolden, len(buf))
	}

	raw, err := os.ReadFile(writerGolden)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with -update-golden): %v", err)
	}
	old, err := os.ReadFile(loadOnlyGolden)
	if err != nil {
		t.Fatalf("missing load-only golden fixture: %v", err)
	}

	// The writer's fixture must be bit-identical to what the current
	// writer emits: any format change (intended or not) trips this first.
	if !bytes.Equal(raw, goldenBytes(t)) {
		t.Fatal("internal/core checkpoint writer output changed; if intentional, bump the format version and regenerate with -update-golden")
	}
	// The two fixtures differ only in the reserved r1 slot.
	if got := binary.LittleEndian.Uint64(old[r1At:]); got != 50 {
		t.Fatalf("load-only fixture's r1 slot reads %d, want 50", got)
	}
	if !bytes.Equal(withSlot(old, r1At, 0), raw) {
		t.Fatal("the fixtures differ outside the r1 slot")
	}

	// And the public facade must load both losslessly.
	for _, b := range [][]byte{raw, old} {
		checkGoldenLoad(t, b)
	}
}

// checkGoldenLoad loads a checkpoint of goldenState through the facade
// and requires exactly that state back.
func checkGoldenLoad(t *testing.T, raw []byte) *parsvd.SVD {
	t.Helper()
	_, modes, singular, iters, snaps := goldenState()
	svd, err := parsvd.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	res, err := svd.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.CloseSlices(res.Singular, singular, 0) {
		t.Fatalf("spectrum: got %v want %v", res.Singular, singular)
	}
	if !mat.EqualApprox(res.Modes, modes, 0) {
		t.Fatal("modes differ from golden state")
	}
	if res.Iterations != iters || res.Snapshots != snaps {
		t.Fatalf("counters: %d/%d want %d/%d", res.Iterations, res.Snapshots, iters, snaps)
	}
	return svd
}

// TestLoadRejectsCorruptedCheckpoints: damage that passes the header
// checks still fails loudly at load time (the stream.Restore validation),
// not deep inside the next update.
func TestLoadRejectsCorruptedCheckpoints(t *testing.T) {
	if _, err := parsvd.Load(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("garbage loaded")
	}
	raw, err := os.ReadFile(loadOnlyGolden)
	if err != nil {
		t.Skip("golden fixture missing")
	}
	for cut := 1; cut < len(raw); cut += 37 {
		if _, err := parsvd.Load(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes loaded", cut)
		}
	}
	// Flip K below the stored mode count: the restore-time invariant
	// K >= len(singular) must reject it.
	bad := append([]byte(nil), raw...)
	bad[5] = 1 // K int64 little-endian lives at bytes 5..13
	for i := 6; i < 13; i++ {
		bad[i] = 0
	}
	if _, err := parsvd.Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("checkpoint with K < len(singular) loaded")
	}
	// Name an APMOS method that does not exist (0 and 1 are the two that
	// did): every checkpoint reader refuses it.
	if got := binary.LittleEndian.Uint64(raw[methodAt:]); got != 0 {
		t.Fatalf("method field reads %d, want the fixture's 0", got)
	}
	for _, m := range []uint64{2, 7, 1 << 63} {
		bad = withMethod(raw, m)
		if _, err := parsvd.Load(bytes.NewReader(bad)); !errors.Is(err, parsvd.ErrBadCheckpoint) {
			t.Fatalf("method %d: err = %v, want ErrBadCheckpoint", int64(m), err)
		}
		if _, err := core.ReadState(bytes.NewReader(bad)); !errors.Is(err, core.ErrBadCheckpoint) {
			t.Fatalf("method %d: ReadState err = %v, want ErrBadCheckpoint", int64(m), err)
		}
	}
}

// r1At and methodAt are the offsets of the checkpoint's two reserved
// slots, once APMOS's gather truncation r1 and seeding method: the int64s
// after magic, version, K, iterations, snapshots, ff, lowRank, oversample,
// power iterations and seed.
const (
	r1At     = 4 + 1 + 3*8 + 8 + 1 + 3*8
	methodAt = r1At + 8
)

// withSlot returns a copy of the checkpoint raw with v in the int64 slot
// at offset at.
func withSlot(raw []byte, at int, v uint64) []byte {
	b := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(b[at:], v)
	return b
}

// withMethod returns a copy of the checkpoint raw with method m in its
// method slot.
func withMethod(raw []byte, m uint64) []byte { return withSlot(raw, methodAt, m) }

// TestCheckpointMethodSlotCompat: writers put 0 in the reserved slots, and
// a checkpoint carrying method 1 (a direct-SVD seeding older writers could
// record) and r1 = 50 still loads as the same model and saves back as the
// writer's fixture.
func TestCheckpointMethodSlotCompat(t *testing.T) {
	old, err := os.ReadFile(loadOnlyGolden)
	if err != nil {
		t.Fatalf("missing golden fixture: %v", err)
	}
	raw, err := os.ReadFile(writerGolden)
	if err != nil {
		t.Fatalf("missing golden fixture: %v", err)
	}
	svd := checkGoldenLoad(t, withMethod(old, 1))
	var again bytes.Buffer
	if err := svd.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Fatal("method 1: re-saved checkpoint differs from the writer's fixture")
	}
}

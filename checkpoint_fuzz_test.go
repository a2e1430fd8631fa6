package parsvd_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	parsvd "goparsvd"

	"goparsvd/internal/core"
)

// v1ShapeAt is the offset of a version-1 checkpoint's rows field: magic,
// version, K, iterations, snapshots, forget factor, lowRank and five
// metadata int64s precede it, and cols follows.
const v1ShapeAt = 4 + 1 + 3*8 + 8 + 1 + 5*8

// hostileCheckpoint is a well-formed version-1 header declaring a
// rows×cols state, followed by tail (the values actually sent).
func hostileCheckpoint(rows, cols int64, tail []byte) []byte {
	var buf bytes.Buffer
	opts, modes, singular, iters, snaps := goldenState()
	if err := core.WriteState(&buf, core.State{Opts: opts, Modes: modes, Singular: singular,
		Iterations: iters, Snapshots: snaps}); err != nil {
		panic(err)
	}
	b := append([]byte(nil), buf.Bytes()[:v1ShapeAt+16]...)
	binary.LittleEndian.PutUint64(b[v1ShapeAt:], uint64(rows))
	binary.LittleEndian.PutUint64(b[v1ShapeAt+8:], uint64(cols))
	return append(b, tail...)
}

// TestLoadRejectsHostileShapes: a checkpoint header may declare any
// shape; Load must refuse one the stream cannot back with
// ErrBadCheckpoint and an allocation bounded by the bytes that arrived,
// never a panic or an out-of-memory crash.
func TestLoadRejectsHostileShapes(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		// 95 bytes: rows = 0 makes rows·cols zero whatever cols says.
		{"zero rows, cols past any allocation", hostileCheckpoint(0, 1<<62, []byte{0})},
		{"zero rows, cols at the bound", hostileCheckpoint(0, 1<<34, []byte{0})},
		// 2^17×2^17 = 2^34 values declared, 1 MiB sent.
		{"2^34 values in 1 MiB", hostileCheckpoint(1<<17, 1<<17, make([]byte, 1<<20-(v1ShapeAt+16)))},
		{"negative cols", hostileCheckpoint(4, -1, nil)},
		{"product wraps", hostileCheckpoint(1<<33, 1<<33, make([]byte, 64))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := parsvd.Load(bytes.NewReader(tc.data))
			runtime.ReadMemStats(&after)
			if !errors.Is(err, parsvd.ErrBadCheckpoint) {
				t.Fatalf("err = %v, want ErrBadCheckpoint", err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
				t.Fatalf("%d-byte checkpoint allocated %d bytes", len(tc.data), got)
			}
		})
	}
}

// FuzzLoad drives parsvd.Load with arbitrary bytes, seeded with a
// version-1 and a version-2 checkpoint: every refusal is an
// ErrBadCheckpoint, and a checkpoint that loads saves to bytes that load
// and save again unchanged.
func FuzzLoad(f *testing.F) {
	if raw, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v1_serial.golden")); err == nil {
		f.Add(raw)
	}
	opts, modes, singular, iters, snaps := goldenState()
	var v2 bytes.Buffer
	if err := core.WriteState(&v2, core.State{Opts: opts, Modes: modes, Singular: singular,
		Iterations: iters, Snapshots: snaps, Shard: core.ShardID{Index: 1, Count: 3}}); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(hostileCheckpoint(1<<17, 1<<17, make([]byte, 64)))

	f.Fuzz(func(t *testing.T, data []byte) {
		svd, err := parsvd.Load(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, parsvd.ErrBadCheckpoint) {
				t.Fatalf("refusal is not ErrBadCheckpoint: %v", err)
			}
			return
		}
		defer svd.Close()
		var first, second bytes.Buffer
		if err := svd.Save(&first); err != nil {
			t.Fatalf("saving a loaded checkpoint: %v", err)
		}
		again, err := parsvd.Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reloading a saved checkpoint: %v", err)
		}
		defer again.Close()
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("checkpoint changed across a load/save round trip")
		}
	})
}

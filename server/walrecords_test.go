package server

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	parsvd "goparsvd"
)

// readWALRecord reads one committed record payload from testdata/walrecords.
func readWALRecord(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "walrecords", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWALRecordCompat pins the on-disk WAL record format. testdata/
// walrecords holds one batch, one merge and one sketch record payload,
// written by the record encoders as they stood before the shared block
// and factor-pair codecs (internal/mat/codec.go) replaced them, and the
// spectrum those encoders' own replay produced. Decoding the three
// records and applying them to a fresh model must reproduce that
// spectrum bit for bit, and re-encoding each decoded record must give
// back its exact bytes.
func TestWALRecordCompat(t *testing.T) {
	svd, err := parsvd.New(parsvd.WithModes(3))
	if err != nil {
		t.Fatal(err)
	}
	defer svd.Close()
	for _, name := range []string{"batch.bin", "merge.bin", "sketch.bin"} {
		payload := readWALRecord(t, name)
		rec, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("decoding %s: %v", name, err)
		}
		if again := rec.encode(); !bytes.Equal(again, payload) {
			t.Fatalf("%s re-encodes to %d different bytes (was %d)", name, len(again), len(payload))
		}
		if err := rec.apply(svd); err != nil {
			t.Fatalf("replaying %s: %v", name, err)
		}
	}
	res, err := svd.Result()
	if err != nil {
		t.Fatal(err)
	}
	want := readWALRecord(t, "spectrum.bin")
	if len(want) != 8*len(res.Singular) {
		t.Fatalf("replay has %d singular values, the fixture %d", len(res.Singular), len(want)/8)
	}
	for i, v := range res.Singular {
		if w := binary.LittleEndian.Uint64(want[8*i:]); math.Float64bits(v) != w {
			t.Fatalf("singular value %d = %v, the fixture's replay had %v", i, v, math.Float64frombits(w))
		}
	}
}

// FuzzDecodeRecord feeds arbitrary bytes to the WAL record decoder, which
// reads what a crashed process left on disk. It must refuse malformed
// input with an error, never panic, and a payload it accepts must
// re-encode to exactly its bytes: a record replays as it was logged.
func FuzzDecodeRecord(f *testing.F) {
	for _, name := range []string{"batch.bin", "merge.bin", "sketch.bin"} {
		payload := readWALRecord(f, name)
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
		f.Add(payload[:len(payload)-1])
	}
	f.Add([]byte(mergeMagic))
	f.Add([]byte(sketchMagic))
	f.Add([]byte(sketchMagic[:5]))
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeRecord(payload)
		if err != nil {
			return
		}
		if again := rec.encode(); !bytes.Equal(again, payload) {
			t.Fatalf("accepted %d bytes that re-encode to %d different bytes", len(payload), len(again))
		}
	})
}

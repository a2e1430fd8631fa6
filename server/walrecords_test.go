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

// TestWALRecordCompat pins the on-disk WAL record format. testdata/
// walrecords holds one batch, one merge and one sketch record payload,
// written by the record encoders as they stood before the shared block
// and factor-pair codecs (internal/mat/codec.go) replaced them, and the
// spectrum those encoders' own replay produced. Replaying the three
// records through replayRecord into a fresh model must reproduce that
// spectrum bit for bit, and re-encoding each decoded record must give
// back its exact bytes.
func TestWALRecordCompat(t *testing.T) {
	read := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join("testdata", "walrecords", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	svd, err := parsvd.New(parsvd.WithModes(3))
	if err != nil {
		t.Fatal(err)
	}
	defer svd.Close()
	for _, name := range []string{"batch.bin", "merge.bin", "sketch.bin"} {
		payload := read(name)
		if err := replayRecord(svd, payload); err != nil {
			t.Fatalf("replaying %s: %v", name, err)
		}
		var again []byte
		switch {
		case isMergePayload(payload):
			again = encodeMergePayload(mergeCheckpoint(payload))
		case isSketchPayload(payload):
			q, s, err := decodeSketchPayload(payload)
			if err != nil {
				t.Fatal(err)
			}
			again = encodeSketchPayload(q, s)
		default:
			b, err := decodeBatchPayload(payload)
			if err != nil {
				t.Fatal(err)
			}
			again = encodeBatchPayload(b)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("%s re-encodes to %d different bytes (was %d)", name, len(again), len(payload))
		}
	}
	res, err := svd.Result()
	if err != nil {
		t.Fatal(err)
	}
	want := read("spectrum.bin")
	if len(want) != 8*len(res.Singular) {
		t.Fatalf("replay has %d singular values, the fixture %d", len(res.Singular), len(want)/8)
	}
	for i, v := range res.Singular {
		if w := binary.LittleEndian.Uint64(want[8*i:]); math.Float64bits(v) != w {
			t.Fatalf("singular value %d = %v, the fixture's replay had %v", i, v, math.Float64frombits(w))
		}
	}
}

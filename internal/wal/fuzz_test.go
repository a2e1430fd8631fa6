package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALOpen writes fuzzed bytes as the newest segment after three valid
// records. Open must never panic and must either succeed or report
// ErrCorrupt; when it succeeds, Replay must hand back every record it
// accepted, contiguously from the first.
func FuzzWALOpen(f *testing.F) {
	hugeTail := make([]byte, frameHeaderLen+4)
	binary.LittleEndian.PutUint32(hugeTail, maxBodyLen)
	badCRC := encodeFrame(4, []byte("payload-4"))
	badCRC[len(badCRC)-1] ^= 1
	f.Add([]byte{})
	f.Add([]byte{9, 0, 0})
	f.Add(encodeFrame(4, []byte("payload-4")))
	f.Add(append(encodeFrame(4, []byte("a")), encodeFrame(5, []byte("b"))...))
	f.Add(append(encodeFrame(4, []byte("a")), hugeTail...))
	f.Add(hugeTail)
	f.Add(badCRC)
	f.Add(encodeFrame(7, []byte("gap")))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		l, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 0, 3)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		newest := filepath.Join(dir, fmt.Sprintf("%020d%s", 4, segSuffix))
		if err := os.WriteFile(newest, data, 0o644); err != nil {
			t.Fatal(err)
		}

		l2, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open = %v, want success or ErrCorrupt", err)
			}
			return
		}
		defer l2.Close()
		last := l2.LastSeq()
		if last < 3 {
			t.Fatalf("LastSeq = %d, lost the three valid records", last)
		}
		seqs, payloads := collect(t, l2, 0)
		if uint64(len(seqs)) != last {
			t.Fatalf("replayed %d records, Open accepted %d", len(seqs), last)
		}
		for i, seq := range seqs {
			if seq != uint64(i+1) {
				t.Fatalf("replayed seq[%d] = %d, want %d", i, seq, i+1)
			}
			if want := fmt.Sprintf("payload-%d", seq); seq <= 3 && payloads[i] != want {
				t.Fatalf("payload %d = %q, want %q", seq, payloads[i], want)
			}
		}
	})
}

package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// appendN appends records from+1 .. from+n with recognizable payloads.
func appendN(t *testing.T, l *Log, from uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		seq := from + uint64(i) + 1
		if err := l.Append(seq, []byte(fmt.Sprintf("payload-%d", seq))); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
}

// collect replays everything after from into (seq, payload) pairs.
func collect(t *testing.T, l *Log, from uint64) (seqs []uint64, payloads []string) {
	t.Helper()
	err := l.Replay(from, func(seq uint64, payload []byte) error {
		seqs = append(seqs, seq)
		payloads = append(payloads, string(payload))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return seqs, payloads
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastSeq(); got != 5 {
		t.Fatalf("LastSeq = %d, want 5", got)
	}
	seqs, payloads := collect(t, l2, 0)
	if len(seqs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(seqs))
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("seq[%d] = %d, want %d", i, seq, i+1)
		}
		if want := fmt.Sprintf("payload-%d", seq); payloads[i] != want {
			t.Fatalf("payload[%d] = %q, want %q", i, payloads[i], want)
		}
	}
	// Replay cursor: records <= from are skipped.
	seqs, _ = collect(t, l2, 3)
	if len(seqs) != 2 || seqs[0] != 4 || seqs[1] != 5 {
		t.Fatalf("replay from 3 gave %v, want [4 5]", seqs)
	}
	if c := l2.Counters(); c.Replayed != 7 {
		t.Fatalf("Replayed counter = %d, want 7", c.Replayed)
	}
}

// TestReplayIdempotent proves boot-twice safety: two Opens of the same
// directory replay the identical record stream.
func TestReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 8)
	l.Close()

	var first, second []string
	for round := 0; round < 2; round++ {
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, payloads := collect(t, l, 0)
		if round == 0 {
			first = payloads
		} else {
			second = payloads
		}
		l.Close()
	}
	if len(first) != len(second) {
		t.Fatalf("boot twice replayed %d then %d records", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at record %d: %q vs %q", i, first[i], second[i])
		}
	}
}

func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	paths, err := listSegments(dir)
	if err != nil || len(paths) != 1 {
		t.Fatalf("want exactly one segment, got %v (%v)", paths, err)
	}
	return paths[0]
}

// TestTornTailTruncated: a crash mid-append leaves a partial frame; Open
// sheds it and keeps everything before.
func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []struct {
		name string
		keep int64 // bytes of the final frame to keep
	}{
		{"partial-header", 3},
		{"partial-body", frameHeaderLen + 9},
	} {
		t.Run(cut.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 0, 3)
			l.Close()
			path := onlySegment(t, dir)
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			// The three frames are equal-sized; chop the last one down.
			frame := info.Size() / 3
			if err := os.Truncate(path, 2*frame+cut.keep); err != nil {
				t.Fatal(err)
			}

			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("torn tail must not fail open: %v", err)
			}
			defer l2.Close()
			if got := l2.LastSeq(); got != 2 {
				t.Fatalf("LastSeq after torn tail = %d, want 2", got)
			}
			seqs, _ := collect(t, l2, 0)
			if len(seqs) != 2 {
				t.Fatalf("replayed %d records after torn tail, want 2", len(seqs))
			}
			if c := l2.Counters(); c.TruncatedBytes == 0 {
				t.Fatal("torn tail did not count truncated bytes")
			}
			// The log must keep appending cleanly after the repair.
			if err := l2.Append(3, []byte("again")); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTornTailHugeLengthAllocatesNothing: a torn tail whose header
// declares a body far larger than the bytes left in the file is shed like
// any torn tail, and Open decides that from the file size instead of
// allocating the declared length first.
func TestTornTailHugeLengthAllocatesNothing(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 3)
	l.Close()
	path := onlySegment(t, dir)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// A 12-byte tail: a header declaring a maxBodyLen body, then 4 bytes.
	tail := make([]byte, frameHeaderLen+4)
	binary.LittleEndian.PutUint32(tail[0:], maxBodyLen)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l2, err := Open(dir, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("torn tail must not fail open: %v", err)
	}
	defer l2.Close()
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("Open allocated %d bytes for a %d-byte tail, want < 1 MiB", alloc, len(tail))
	}
	if got := l2.LastSeq(); got != 3 {
		t.Fatalf("LastSeq = %d, want 3", got)
	}
	if got, err := os.Stat(path); err != nil || got.Size() != info.Size() {
		t.Fatalf("segment not truncated back to its three frames: %v, %v", got, err)
	}
	if seqs, _ := collect(t, l2, 0); len(seqs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(seqs))
	}
}

// TestMidLogCorruption: a bit flip in a record that is not the torn tail
// must refuse the whole log with ErrCorrupt, not silently skip.
func TestMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 3)
	l.Close()
	path := onlySegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := len(data) / 3
	data[frame+frameHeaderLen+9] ^= 0x40 // flip a payload bit in record 2
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-log bit flip: Open err = %v, want ErrCorrupt", err)
	}
}

// TestFinalFrameBadCRC: a complete final frame with a wrong CRC is
// corruption (a torn write leaves a short file, never a complete frame
// with mismatched bytes), so it must not be silently truncated.
func TestFinalFrameBadCRC(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 2)
	l.Close()
	path := onlySegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad CRC on complete final frame: Open err = %v, want ErrCorrupt", err)
	}
}

// TestSequenceGapIsCorrupt: contiguous sequence numbers are part of the
// integrity contract.
func TestSequenceGapIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 1)
	if err := l.Append(3, []byte("gap")); err == nil {
		t.Fatal("out-of-order append was accepted")
	}
	l.Close()

	// Forge a gap on disk: rewrite record 2's seq field to 7 and fix the
	// CRC so only the contiguity check can catch it.
	appendGapFrame(t, onlySegment(t, dir), 7)
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sequence gap: Open err = %v, want ErrCorrupt", err)
	}
}

// encodeFrame renders one well-formed (seq, payload) frame.
func encodeFrame(seq uint64, payload []byte) []byte {
	body := binary.LittleEndian.AppendUint64(nil, seq)
	body = append(body, payload...)
	frame := make([]byte, frameHeaderLen, frameHeaderLen+len(body))
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:], crcOf(body))
	return append(frame, body...)
}

func appendGapFrame(t *testing.T, path string, seq uint64) {
	t.Helper()
	frame := encodeFrame(seq, []byte("gapX"))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
}

func crcOf(body []byte) uint32 {
	return crc32.Checksum(body, castagnoli)
}

// TestEmptySegment: a zero-byte segment file (created, crash before the
// first append) neither fails Open nor contributes records, and rotation
// cleans it up.
func TestEmptySegment(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "00000000000000000001.seg"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("empty segment failed open: %v", err)
	}
	defer l.Close()
	if seqs, _ := collect(t, l, 0); len(seqs) != 0 {
		t.Fatalf("empty segment replayed %d records", len(seqs))
	}
	if err := l.Rotate(0); err != nil {
		t.Fatal(err)
	}
	if paths, _ := listSegments(dir); len(paths) != 0 {
		t.Fatalf("rotation left %v behind", paths)
	}
	// The log keeps working afterwards.
	if err := l.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
}

// TestRotateAfterCheckpoint: segments fully covered by the checkpoint
// counter disappear; appends continue contiguously in a fresh segment.
func TestRotateAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 4)
	if rec, bytes := l.Depth(); rec != 4 || bytes == 0 {
		t.Fatalf("depth before rotate = (%d, %d)", rec, bytes)
	}
	if err := l.Rotate(4); err != nil {
		t.Fatal(err)
	}
	if paths, _ := listSegments(dir); len(paths) != 0 {
		t.Fatalf("rotate(4) left segments %v", paths)
	}
	if rec, _ := l.Depth(); rec != 0 {
		t.Fatalf("depth after rotate = %d records, want 0", rec)
	}
	if c := l.Counters(); c.TruncatedBytes == 0 {
		t.Fatal("rotation did not count truncated bytes")
	}

	// Appends resume at seq 5 in a segment named for it.
	appendN(t, l, 4, 2)
	paths, _ := listSegments(dir)
	if len(paths) != 1 || filepath.Base(paths[0]) != "00000000000000000005.seg" {
		t.Fatalf("post-rotate segments = %v", paths)
	}

	// A partial rotation keeps uncovered segments: force a new segment by
	// sealing at a tiny size cap in a fresh log.
	dir2 := t.TempDir()
	small, err := Open(dir2, Options{MaxSegmentBytes: 1}) // every append seals
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	appendN(t, small, 0, 3)
	if paths, _ := listSegments(dir2); len(paths) != 3 {
		t.Fatalf("size-capped log has %v", paths)
	}
	if err := small.Rotate(2); err != nil {
		t.Fatal(err)
	}
	paths, _ = listSegments(dir2)
	if len(paths) != 1 || filepath.Base(paths[0]) != "00000000000000000003.seg" {
		t.Fatalf("rotate(2) kept %v, want only seq-3 segment", paths)
	}
	seqs, _ := collect(t, small, 0)
	if len(seqs) != 1 || seqs[0] != 3 {
		t.Fatalf("after partial rotation replay = %v, want [3]", seqs)
	}
}

// TestResumeAppendAfterReopen: the recover-then-serve sequence — open,
// replay, append more — keeps one contiguous log.
func TestResumeAppendAfterReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 3)
	l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l2, 3, 3)
	l2.Close()

	l3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	seqs, _ := collect(t, l3, 0)
	if len(seqs) != 6 || seqs[5] != 6 {
		t.Fatalf("resumed log replays %v, want 1..6", seqs)
	}
}

func TestSyncPolicies(t *testing.T) {
	pol, err := ParseSyncPolicy("interval")
	if err != nil || pol != SyncInterval {
		t.Fatalf("ParseSyncPolicy(interval) = %v, %v", pol, err)
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bogus policy accepted")
	}

	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 3)
	if c := l.Counters(); c.Fsyncs != 3 || c.Appends != 3 {
		t.Fatalf("SyncAlways counters = %+v, want 3 fsyncs / 3 appends", c)
	}
	l.Close()

	li, err := Open(t.TempDir(), Options{Sync: SyncInterval, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, li, 0, 1)
	deadline := time.Now().Add(2 * time.Second)
	for li.Counters().Fsyncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background flusher never synced")
		}
		time.Sleep(time.Millisecond)
	}
	li.Close()

	ln, err := Open(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, ln, 0, 2)
	if c := ln.Counters(); c.Fsyncs != 0 {
		t.Fatalf("SyncNever issued %d fsyncs", c.Fsyncs)
	}
	ln.Close() // Close always flushes
}

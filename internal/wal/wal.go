// Package wal implements the segmented write-ahead log beneath the
// serving layer's durable ingest: an append-only sequence of CRC32C-framed,
// length-prefixed records spread across numbered segment files, replayable
// in order after a crash and truncatable from the front once a checkpoint
// has made a prefix redundant.
//
// On-disk layout. A log is a directory of segment files named by the first
// sequence number they hold:
//
//	<dir>/00000000000000000001.seg
//	<dir>/00000000000000000042.seg        (after a rotation at seq 41)
//
// Each record is one frame:
//
//	frame := length:u32le  crc:u32le  body
//	body  := seq:u64le  payload
//
// where length counts the body bytes and crc is the CRC32C (Castagnoli)
// of the body. Sequence numbers are strictly contiguous across the whole
// log; a gap is corruption.
//
// Failure model. A crashed append leaves a prefix of a frame at the tail
// of the newest segment: Open detects it (partial header, or fewer body
// bytes left in the file than the header declares, decided from the file
// size before any body is read) and truncates the file back to the last
// complete frame — a torn tail never fails recovery, it only sheds the
// un-acked record it belongs to. A complete frame whose CRC does not match
// was not torn, it was corrupted after the fact (bit rot, a lying disk):
// that is ErrCorrupt, and the caller decides whether to quarantine. The
// same goes for frames with impossible lengths or non-contiguous sequence
// numbers anywhere before the tail.
//
// Durability is governed by the SyncPolicy: SyncAlways fsyncs every
// append before it returns (an acked record survives kill -9 of the
// process and power loss short of disk lies), SyncInterval runs a
// background flusher so at most an interval's worth of acked records is
// at risk, SyncNever leaves flushing to the OS page cache.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrCorrupt reports damage that truncation cannot repair: a bad CRC on a
// complete frame, an impossible frame length, a sequence gap, or a torn
// frame in any segment but the newest. Replaying past it could silently
// diverge from the acked history, so Open refuses the whole log.
var ErrCorrupt = errors.New("wal: log is corrupt")

// SyncPolicy says when appended records reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs the segment before Append returns. Every record
	// the caller has seen acknowledged survives a crash.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs from a background flusher every Interval;
	// records appended since the last flush are lost on a crash.
	SyncInterval
	// SyncNever never fsyncs; the OS decides. Cheapest, weakest.
	SyncNever
)

// ParseSyncPolicy maps the flag spellings "always", "interval" and
// "never" onto the policy constants.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf(`wal: unknown sync policy %q (want "always", "interval" or "never")`, s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Options tunes a Log. The zero value is SyncAlways with the default
// segment cap.
type Options struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// Interval is the flush cadence under SyncInterval (default 100ms).
	Interval time.Duration
	// MaxSegmentBytes seals the active segment once it grows past this
	// size, so one file never becomes unboundedly large between
	// checkpoints (default 64 MiB). Sealed segments are only deleted by
	// Rotate.
	MaxSegmentBytes int64
	// Logf receives operational log lines (torn-tail truncations).
	// Default: silent.
	Logf func(format string, args ...any)
}

// Counters is a snapshot of a Log's monotone activity counters.
type Counters struct {
	// Appends counts records appended in this process.
	Appends uint64
	// Fsyncs counts fsync calls issued (per policy).
	Fsyncs uint64
	// Replayed counts records handed to Replay callbacks.
	Replayed uint64
	// TruncatedBytes counts bytes removed from the log: rotated-out
	// segments plus torn tails shed at Open.
	TruncatedBytes uint64
}

const (
	frameHeaderLen = 8       // length:u32 + crc:u32
	minBodyLen     = 8       // a body is at least the seq
	maxBodyLen     = 1 << 30 // larger is treated as corruption
	segSuffix      = ".seg"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segment is the in-memory bookkeeping of one on-disk segment file.
type segment struct {
	path    string
	first   uint64 // first seq the file holds (its name)
	last    uint64 // last seq present, 0 when empty
	bytes   int64
	records int64
}

// Log is an open write-ahead log. Append/Rotate/Sync/Close are safe for
// concurrent use; Replay must complete before the first Append (the usual
// recover-then-serve sequence).
type Log struct {
	dir string
	opt Options

	mu       sync.Mutex
	segments []segment // sorted by first seq; the last one is active
	active   *os.File  // nil until the first append needs it
	lastSeq  uint64
	unsynced bool
	closed   bool

	appends   atomic.Uint64
	fsyncs    atomic.Uint64
	replayed  atomic.Uint64
	truncated atomic.Uint64
	depthRec  atomic.Int64
	depthByte atomic.Int64

	flushQuit chan struct{}
	flushDone chan struct{}
}

// Open creates the directory if needed, scans every segment — validating
// frames, truncating a torn tail on the newest one, refusing mid-log
// corruption with ErrCorrupt — and returns a Log positioned to append
// after the highest surviving sequence number.
func Open(dir string, opt Options) (*Log, error) {
	if opt.Interval <= 0 {
		opt.Interval = 100 * time.Millisecond
	}
	if opt.MaxSegmentBytes <= 0 {
		opt.MaxSegmentBytes = 64 << 20
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opt: opt}
	if err := l.scan(); err != nil {
		return nil, err
	}
	if opt.Sync == SyncInterval {
		l.flushQuit = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, nil
}

// scan walks the segments in order, building the bookkeeping and
// enforcing the failure model: torn frames are legal only at the very end
// of the newest segment (truncated there), everything else is ErrCorrupt.
func (l *Log) scan() error {
	paths, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	var prevSeq uint64
	for i, path := range paths {
		last := i == len(paths)-1
		seg, tornAt, err := scanSegment(path, prevSeq)
		if err != nil {
			return fmt.Errorf("%w: %s: %v", ErrCorrupt, filepath.Base(path), err)
		}
		if tornAt >= 0 {
			if !last {
				return fmt.Errorf("%w: %s: torn frame before the newest segment", ErrCorrupt, filepath.Base(path))
			}
			var shed int64
			if info, err := os.Stat(path); err == nil {
				shed = info.Size() - tornAt
			}
			if err := os.Truncate(path, tornAt); err != nil {
				return fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
			}
			seg.bytes = tornAt
			l.truncated.Add(uint64(shed))
			l.opt.Logf("wal: %s: truncated torn tail (%d bytes) after seq %d", filepath.Base(path), shed, seg.last)
		}
		if seg.records > 0 {
			prevSeq = seg.last
		}
		l.segments = append(l.segments, seg)
		l.depthRec.Add(seg.records)
		l.depthByte.Add(seg.bytes)
	}
	l.lastSeq = prevSeq
	return nil
}

// listSegments returns the segment paths sorted by their first sequence
// number. Non-segment files are ignored.
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	type named struct {
		first uint64
		path  string
	}
	var segs []named
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, named{first, filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	out := make([]string, len(segs))
	for i, s := range segs {
		out[i] = s.path
	}
	return out, nil
}

// scanSegment validates one segment. It returns the bookkeeping, the
// offset of a torn tail (-1 when the file ends cleanly) and an error for
// unrepairable corruption. prevSeq is the last sequence number of the
// preceding segment (0 at the start of the log): frames must continue
// contiguously from it, except that the log's very first record may start
// anywhere (earlier history was legitimately rotated out).
func scanSegment(path string, prevSeq uint64) (segment, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return segment{}, -1, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return segment{}, -1, err
	}
	seg := segment{path: path, first: segFirst(path)}
	var (
		off    int64
		header [frameHeaderLen]byte
	)
	body := make([]byte, 0, 4096)
	for {
		_, err := io.ReadFull(f, header[:])
		if err == io.EOF {
			return seg, -1, nil // clean end
		}
		if err == io.ErrUnexpectedEOF {
			return seg, off, nil // torn: partial header
		}
		if err != nil {
			return segment{}, -1, err
		}
		length := binary.LittleEndian.Uint32(header[0:])
		crc := binary.LittleEndian.Uint32(header[4:])
		if length < minBodyLen || length > maxBodyLen {
			return segment{}, -1, fmt.Errorf("frame at offset %d declares impossible body length %d", off, length)
		}
		if off+frameHeaderLen+int64(length) > info.Size() {
			return seg, off, nil // torn: the body runs past the end of the file
		}
		if cap(body) < int(length) {
			body = make([]byte, length)
		}
		body = body[:length]
		if _, err := io.ReadFull(f, body); err == io.ErrUnexpectedEOF {
			return seg, off, nil // torn: partial body
		} else if err != nil {
			return segment{}, -1, err
		}
		if got := crc32.Checksum(body, castagnoli); got != crc {
			return segment{}, -1, fmt.Errorf("frame at offset %d fails CRC32C (stored %08x, computed %08x)", off, crc, got)
		}
		seq := binary.LittleEndian.Uint64(body[0:])
		if prevSeq != 0 && seq != prevSeq+1 {
			return segment{}, -1, fmt.Errorf("frame at offset %d has seq %d, want %d (sequence gap)", off, seq, prevSeq+1)
		}
		prevSeq = seq
		seg.last = seq
		seg.records++
		off += frameHeaderLen + int64(length)
		seg.bytes = off
	}
}

func segFirst(path string) uint64 {
	first, _ := strconv.ParseUint(strings.TrimSuffix(filepath.Base(path), segSuffix), 10, 64)
	return first
}

// LastSeq reports the highest sequence number in the log, 0 when empty.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Replay streams every record with seq > from to fn, in sequence order.
// It re-reads the (already validated and tail-truncated) segment files, so
// call it after Open and before the first Append. A non-nil error from fn
// stops the replay and is returned.
func (l *Log) Replay(from uint64, fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	paths := make([]string, 0, len(l.segments))
	for _, s := range l.segments {
		paths = append(paths, s.path)
	}
	l.mu.Unlock()
	for _, path := range paths {
		if err := replaySegment(path, from, fn, &l.replayed); err != nil {
			return err
		}
	}
	return nil
}

func replaySegment(path string, from uint64, fn func(uint64, []byte) error, replayed *atomic.Uint64) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var (
		off    int64
		header [frameHeaderLen]byte
	)
	for {
		if _, err := io.ReadFull(f, header[:]); err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		length := binary.LittleEndian.Uint32(header[0:])
		crc := binary.LittleEndian.Uint32(header[4:])
		if length < minBodyLen || length > maxBodyLen {
			return fmt.Errorf("%w: %s: impossible body length %d", ErrCorrupt, filepath.Base(path), length)
		}
		off += frameHeaderLen + int64(length)
		if off > info.Size() {
			return nil // the torn tail Open already truncated on disk
		}
		body := make([]byte, length)
		if _, err := io.ReadFull(f, body); err == io.ErrUnexpectedEOF {
			return nil // the torn tail Open already truncated on disk
		} else if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if got := crc32.Checksum(body, castagnoli); got != crc {
			return fmt.Errorf("%w: %s: CRC mismatch during replay", ErrCorrupt, filepath.Base(path))
		}
		seq := binary.LittleEndian.Uint64(body[0:])
		if seq <= from {
			continue
		}
		replayed.Add(1)
		if err := fn(seq, body[minBodyLen:]); err != nil {
			return err
		}
	}
}

// Append frames (seq, payload) and writes it to the active segment,
// fsyncing per the policy before returning. seq must be exactly
// LastSeq()+1 when the log is non-empty — the contiguity Replay relies on
// is enforced at the source.
func (l *Log) Append(seq uint64, payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: append on closed log")
	}
	if l.lastSeq != 0 && seq != l.lastSeq+1 {
		return fmt.Errorf("wal: append seq %d out of order (last is %d)", seq, l.lastSeq)
	}
	if len(payload) > maxBodyLen-minBodyLen {
		return fmt.Errorf("wal: payload of %d bytes exceeds the %d-byte record cap", len(payload), maxBodyLen-minBodyLen)
	}
	if err := l.ensureActive(seq); err != nil {
		return err
	}
	bodyLen := minBodyLen + len(payload)
	frame := make([]byte, frameHeaderLen+bodyLen)
	binary.LittleEndian.PutUint32(frame[0:], uint32(bodyLen))
	binary.LittleEndian.PutUint64(frame[8:], seq)
	copy(frame[16:], payload)
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(frame[8:], castagnoli))
	if _, err := l.active.Write(frame); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.unsynced = true
	if l.opt.Sync == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	seg := &l.segments[len(l.segments)-1]
	seg.last = seq
	seg.records++
	seg.bytes += int64(len(frame))
	l.lastSeq = seq
	l.appends.Add(1)
	l.depthRec.Add(1)
	l.depthByte.Add(int64(len(frame)))
	if seg.bytes >= l.opt.MaxSegmentBytes {
		l.sealActiveLocked()
	}
	return nil
}

// ensureActive opens (or creates) the segment the next append goes to.
func (l *Log) ensureActive(nextSeq uint64) error {
	if l.active != nil {
		return nil
	}
	if n := len(l.segments); n > 0 {
		seg := l.segments[n-1]
		if seg.bytes < l.opt.MaxSegmentBytes {
			f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			l.active = f
			return nil
		}
	}
	path := filepath.Join(l.dir, fmt.Sprintf("%020d%s", nextSeq, segSuffix))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.active = f
	l.segments = append(l.segments, segment{path: path, first: nextSeq})
	syncDir(l.dir)
	return nil
}

// sealActiveLocked closes the active file so the next append starts a
// fresh segment. The sealed segment stays until Rotate deletes it.
func (l *Log) sealActiveLocked() {
	if l.active != nil {
		l.active.Close()
		l.active = nil
	}
}

// Sync flushes appended-but-unsynced records to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if !l.unsynced || l.active == nil {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.unsynced = false
	l.fsyncs.Add(1)
	return nil
}

// Rotate is the checkpoint truncation barrier: every record with seq <=
// upTo is now redundant (a checkpoint holds its effect), so segments
// entirely at or below upTo are deleted — including the active one, which
// is sealed first. Recovery time and disk stay bounded by the checkpoint
// cadence.
func (l *Log) Rotate(upTo uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: rotate on closed log")
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	var keep []segment
	var firstErr error
	for i, seg := range l.segments {
		// An empty segment (created, never appended to) holds nothing, so
		// dropping it is always safe.
		covered := seg.records == 0 || seg.last <= upTo
		if !covered {
			keep = append(keep, seg)
			continue
		}
		if i == len(l.segments)-1 {
			l.sealActiveLocked()
		}
		if err := os.Remove(seg.path); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("wal: rotating %s: %w", seg.path, err)
			}
			keep = append(keep, seg)
			continue
		}
		l.truncated.Add(uint64(seg.bytes))
		l.depthRec.Add(-seg.records)
		l.depthByte.Add(-seg.bytes)
	}
	l.segments = keep
	syncDir(l.dir)
	return firstErr
}

// Depth reports the records and bytes currently in the log — the replay
// work (and data at risk under lazy sync policies) a crash right now
// would incur on top of the last checkpoint.
func (l *Log) Depth() (records, bytes int64) {
	return l.depthRec.Load(), l.depthByte.Load()
}

// Counters snapshots the activity counters.
func (l *Log) Counters() Counters {
	return Counters{
		Appends:        l.appends.Load(),
		Fsyncs:         l.fsyncs.Load(),
		Replayed:       l.replayed.Load(),
		TruncatedBytes: l.truncated.Load(),
	}
}

// Close flushes and closes the log. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	err := l.syncLocked()
	l.sealActiveLocked()
	quit := l.flushQuit
	l.mu.Unlock()
	if quit != nil {
		close(quit)
		<-l.flushDone
	}
	return err
}

// flushLoop is the SyncInterval background flusher.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	t := time.NewTicker(l.opt.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.flushQuit:
			return
		case <-t.C:
			l.mu.Lock()
			if err := l.syncLocked(); err != nil {
				l.opt.Logf("wal: background flush: %v", err)
			}
			l.mu.Unlock()
		}
	}
}

// syncDir fsyncs a directory so segment creation/deletion survives a
// crash. Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

package launch

// Fuzz harness for the session-protocol boundary: the frame reader and
// the payload decoders parse bytes written by another process, so they
// must never panic, never over-allocate against a lying length prefix,
// and never let non-finite snapshot data through into a collective
// update. The codecs themselves live in tcptransport (frames) and mat
// (blocks, factor pairs); these targets drive them as a worker does. Run
// the seeds with `go test`, or explore with
// `go test -fuzz FuzzReadSessionFrame ./internal/launch` (and the other
// targets likewise).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"goparsvd/internal/core"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi/tcptransport"
	"goparsvd/internal/stream"
)

// blockBody renders m's data body through the launcher's frame encoder,
// with a scratch buffer small enough that every block spans several
// flushes.
func blockBody(m *mat.Dense) []byte {
	var buf bytes.Buffer
	if err := writeBlockFrame(&buf, make([]byte, 48), m); err != nil {
		panic(err)
	}
	return buf.Bytes()[5:]
}

// factorPairBody renders the PUSH-SKETCH payload for (q, s).
func factorPairBody(q, s *mat.Dense) []byte {
	var buf bytes.Buffer
	if err := writeFactorPairFrame(&buf, make([]byte, 48), q, s); err != nil {
		panic(err)
	}
	return buf.Bytes()[5:]
}

// readBlock decodes a PUSH body as the worker does, into a fresh block.
func readBlock(body []byte) (*mat.Dense, error) {
	return readBlockInto(body, new(mat.Dense))
}

// readBlockInto decodes a PUSH body as mat.ReadBlockExact does, into dst.
func readBlockInto(body []byte, dst *mat.Dense) (*mat.Dense, error) {
	if err := mat.ReadBlockExact(bytes.NewReader(body), len(body), dst, make([]byte, blockScratch)); err != nil {
		return nil, err
	}
	return dst, nil
}

// frameSeed renders one well-formed frame.
func frameSeed(verb byte, body []byte) []byte {
	var buf bytes.Buffer
	if err := tcptransport.WriteFrame(&buf, verb, body); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func FuzzReadSessionFrame(f *testing.F) {
	valid := frameSeed(SessPush, blockBody(mat.NewFromData(2, 3, []float64{1, 2, 3, 4, 5, 6})))
	f.Add(valid)
	f.Add(valid[:3])                                    // truncated header
	f.Add(valid[:7])                                    // truncated body
	f.Add(frameSeed(SessOK, []byte(`{}`)))              // JSON body
	f.Add(frameSeed(SessShutdown, nil))                 // empty body
	f.Add([]byte{0, 0, 0, 0})                           // zero length
	f.Add([]byte{255, 255, 255, 255, 1})                // absurd length
	f.Add(binary.LittleEndian.AppendUint32(nil, 1<<28)) // huge declared, no data

	f.Fuzz(func(t *testing.T, data []byte) {
		verb, body, err := tcptransport.ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful parse must be internally consistent: the frame
		// re-encodes to the exact bytes consumed.
		var rt bytes.Buffer
		if err := tcptransport.WriteFrame(&rt, verb, body); err != nil {
			t.Fatalf("re-encoding a parsed frame failed: %v", err)
		}
		if !bytes.Equal(rt.Bytes(), data[:rt.Len()]) {
			t.Fatalf("frame did not round-trip")
		}
	})
}

// blockSeeds are the PUSH-body fuzz seeds: well-formed blocks and the
// ways a block can be refused.
func blockSeeds() [][]byte {
	seeds := [][]byte{
		blockBody(mat.NewFromData(2, 3, []float64{1, 2, 3, 4, 5, 6})),
		blockBody(mat.NewFromData(1, 1, []float64{-0.0})),
		blockBody(mat.NewFromData(5, 3, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})),
		blockBody(mat.NewFromData(1, 2, []float64{math.NaN(), 1})),               // must be rejected
		blockBody(mat.NewFromData(1, 2, []float64{math.Inf(1), 1})),              // must be rejected
		blockBody(mat.NewFromData(3, 2, []float64{1, 2, 3, 4, math.Inf(-1), 6})), // must be rejected
		blockBody(mat.NewFromData(2, 3, []float64{1, 2, 3, 4, 5, 6}))[:20],       // truncated
		append(blockBody(mat.NewFromData(2, 1, []float64{1, 2})), 0),             // trailing byte
	}
	// A header that declares a huge float count with no payload behind it.
	huge := make([]byte, 32)
	binary.LittleEndian.PutUint64(huge[8:], 4)      // rows
	binary.LittleEndian.PutUint64(huge[16:], 4)     // cols
	binary.LittleEndian.PutUint64(huge[24:], 1<<40) // count lie
	// Dims that disagree with the count.
	bad := blockBody(mat.NewFromData(2, 2, []float64{1, 2, 3, 4}))
	binary.LittleEndian.PutUint64(bad[8:], 3) // rows 2 -> 3
	// Dims whose int64 product wraps back to the payload length:
	// (2^61+1)·8 ≡ 8 mod 2^64, so a multiplying check would accept it.
	wrap := blockBody(mat.NewFromData(1, 8, []float64{1, 2, 3, 4, 5, 6, 7, 8}))
	binary.LittleEndian.PutUint64(wrap[8:], 1<<61|1) // rows 1 -> 2^61+1
	return append(seeds, huge, bad, wrap)
}

func FuzzDecodeBlock(f *testing.F) {
	for _, seed := range blockSeeds() {
		f.Add(seed)
	}

	var reused mat.Dense
	f.Fuzz(func(t *testing.T, data []byte) {
		// A stream that ends before the declared body always fails.
		if len(data) > 0 {
			var m mat.Dense
			if err := mat.ReadBlockExact(bytes.NewReader(data[:len(data)-1]), len(data), &m, make([]byte, 64)); err == nil {
				t.Fatal("accepted a block body cut short of its declared length")
			}
		}
		m, err := readBlock(data)
		// A block that has held other blocks decodes like a fresh one.
		again, errAgain := readBlockInto(data, &reused)
		if (err == nil) != (errAgain == nil) {
			t.Fatalf("fresh reader err = %v, reused reader err = %v", err, errAgain)
		}
		if err != nil {
			return
		}
		if !mat.EqualApprox(m, again, 0) {
			t.Fatal("reused reader decoded different values")
		}
		// Everything the reader lets through must satisfy the snapshot
		// invariants: positive dims, matching payload, finite values.
		r, c := m.Dims()
		if r < 1 || c < 1 {
			t.Fatalf("accepted non-positive dims %dx%d", r, c)
		}
		if len(m.RawData()) != r*c {
			t.Fatalf("accepted %d values for a %dx%d block", len(m.RawData()), r, c)
		}
		for _, v := range m.RawData() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted a non-finite snapshot value %g", v)
			}
		}
		// The encoder writes the accepted block back bit for bit.
		if !bytes.Equal(blockBody(m), data) {
			t.Fatal("accepted block did not round-trip")
		}
	})
}

// FuzzDecodeBlockInPlace: the worker's PUSH decoder — the header
// (mat.ReadBlockHeader), then the values transposed into storage sized
// from it (mat.ReadValuesT, every batch the seeding one included) —
// accepts exactly the bodies mat.ReadBlockExact accepts and delivers its
// values bit for bit as TInto would lay them out, whatever the scratch
// size splits the rows at.
func FuzzDecodeBlockInPlace(f *testing.F) {
	for _, seed := range blockSeeds() {
		f.Add(seed, uint8(0))
		f.Add(seed, uint8(3))
	}
	f.Fuzz(func(t *testing.T, data []byte, split uint8) {
		want, werr := readBlock(data)
		scratch := make([]byte, mat.BlockHeaderLen+8*int(split%16))
		r := bytes.NewReader(data)
		rows, cols, err := mat.ReadBlockHeader(r, len(data), scratch)
		var got *mat.Dense
		if err == nil {
			got = mat.New(cols, rows)
			err = mat.ReadValuesT(r, got, scratch)
		}
		if (err == nil) != (werr == nil) {
			t.Fatalf("in-place decode err = %v, ReadBlockExact err = %v", err, werr)
		}
		if err != nil {
			return
		}
		if !equalFloatsBits(got.RawData(), want.T().RawData()) {
			t.Fatal("in-place decode delivered other values than ReadBlockExact")
		}
	})
}

func FuzzDecodeFactorPair(f *testing.F) {
	q := mat.NewFromData(3, 2, []float64{1, 0, 0, 1, 0.5, 0.5})
	s := mat.NewFromData(2, 4, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	good := factorPairBody(q, s)
	f.Add(good)
	f.Add(good[:len(good)-8])                                                 // S truncated
	f.Add(good[:20])                                                          // Q truncated
	f.Add(factorPairBody(q, mat.NewFromData(1, 2, []float64{1, 2})))          // inner mismatch
	f.Add(factorPairBody(q, mat.NewFromData(2, 1, []float64{math.NaN(), 1}))) // non-finite S
	lie := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(lie, 1<<31) // Q length past the payload
	f.Add(lie)
	f.Add([]byte{1, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		q, s, err := mat.DecodeFactorPair(data)
		if err != nil {
			return
		}
		if q.Cols() != s.Rows() {
			t.Fatalf("accepted mismatched factors %dx%d and %dx%d", q.Rows(), q.Cols(), s.Rows(), s.Cols())
		}
		for _, m := range []*mat.Dense{q, s} {
			if r, c := m.Dims(); r < 1 || c < 1 || len(m.RawData()) != r*c {
				t.Fatalf("accepted a malformed %dx%d factor with %d values", r, c, len(m.RawData()))
			}
			if i := mat.FirstNonFinite(m.RawData()); i >= 0 {
				t.Fatalf("accepted a non-finite factor value %g", m.RawData()[i])
			}
		}
		// Both factors stay valid side by side, and re-encode to the
		// payload's bytes.
		if !bytes.Equal(factorPairBody(q, s), data) {
			t.Fatal("accepted factor pair did not round-trip")
		}
	})
}

// TestDecodeBlockRejectsHostileInputs pins the block reader's hard rejections
// outside the fuzzer (so `go test` alone proves them): truncation,
// oversize declared counts, dimension lies and non-finite payloads all
// error — never panic, never allocate the declared size.
func TestDecodeBlockRejectsHostileInputs(t *testing.T) {
	good := blockBody(mat.NewFromData(2, 3, []float64{1, 2, 3, 4, 5, 6}))
	cases := map[string][]byte{
		"empty":     nil,
		"short":     good[:16],
		"truncated": good[:len(good)-8],
		"trailing":  append(append([]byte(nil), good...), 0),
	}
	tagged := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(tagged[0:], 7) // tag 0 -> 7
	cases["nonzero tag"] = tagged
	lie := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(lie[24:], 1<<40) // count ≫ payload
	cases["count lie"] = lie
	zero := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(zero[8:], 0) // rows = 0
	cases["zero rows"] = zero
	wrap := blockBody(mat.NewFromData(1, 8, []float64{1, 2, 3, 4, 5, 6, 7, 8}))
	binary.LittleEndian.PutUint64(wrap[8:], 1<<61|1) // (2^61+1)·8 wraps to 8
	cases["dims product overflow"] = wrap
	nan := blockBody(mat.NewFromData(1, 2, []float64{math.NaN(), 1}))
	cases["nan payload"] = nan
	inf := blockBody(mat.NewFromData(1, 2, []float64{1, math.Inf(1)}))
	cases["inf payload"] = inf
	for name, data := range cases {
		if _, err := readBlock(data); err == nil {
			t.Errorf("%s: block reader accepted hostile input", name)
		}
	}
	if _, err := readBlock(good); err != nil {
		t.Errorf("well-formed block rejected: %v", err)
	}
	// A length prefix promising more than the stream holds fails without
	// allocating the declared size.
	huge := append([]byte(nil), good[:mat.BlockHeaderLen]...)
	binary.LittleEndian.PutUint64(huge[8:], 1<<27) // rows
	binary.LittleEndian.PutUint64(huge[16:], 1)    // cols
	binary.LittleEndian.PutUint64(huge[24:], 1<<27)
	huge = append(huge, make([]byte, 1<<16)...)
	var m mat.Dense
	scratch := make([]byte, blockScratch)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := mat.ReadBlockExact(bytes.NewReader(huge), mat.BlockHeaderLen+8<<27, &m, scratch); err == nil {
		t.Error("truncated oversize block did not error")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Errorf("a 1 GiB block cut off after 64 KiB allocated %d bytes", got)
	}
}

// TestWriteBlockFrameMatchesWireLayout: the streaming frame encoder writes
// the frame and block layouts field by field, for every scratch size,
// including one that splits the headers.
func TestWriteBlockFrameMatchesWireLayout(t *testing.T) {
	big := mat.New(37, 5)
	for i := range big.RawData() {
		big.RawData()[i] = float64(i) - 0.5
	}
	var rows mat.Dense
	big.ViewRows(3, 20, &rows)
	want := binary.LittleEndian.AppendUint32(nil, 1+32+8*17*5)
	want = append(want, SessPush)
	for _, field := range []uint64{0, 17, 5, 17 * 5} { // tag, rows, cols, n
		want = binary.LittleEndian.AppendUint64(want, field)
	}
	for _, v := range rows.RawData() {
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v))
	}
	for _, n := range []int{8, 40, 48, 1 << 10, blockScratch} {
		var got bytes.Buffer
		if err := writeBlockFrame(&got, make([]byte, n), &rows); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("scratch %d: frame differs from the wire layout", n)
		}
	}
}

// TestBlockReaderSteadyStateAllocs: once the block shape is steady, a
// worker's PUSH decode allocates nothing.
func TestBlockReaderSteadyStateAllocs(t *testing.T) {
	body := blockBody(mat.New(64, 16))
	var dst mat.Dense
	scratch := make([]byte, blockScratch)
	r := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(body)
		if err := mat.ReadBlockExact(r, len(body), &dst, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state block decode: %v allocs, want 0", allocs)
	}
}

// TestReadSessionFrameBoundsAllocation: a frame whose length prefix
// promises far more than the stream delivers must fail after at most one
// chunk of allocation — not attempt the full declared size.
func TestReadSessionFrameBoundsAllocation(t *testing.T) {
	// Declares ~256 MiB, delivers 16 bytes.
	data := binary.LittleEndian.AppendUint32(nil, 1<<28)
	data = append(data, make([]byte, 16)...)
	if _, _, err := tcptransport.ReadFrame(bytes.NewReader(data)); err == nil {
		t.Fatal("truncated oversize frame did not error")
	}
	// Over the absolute bound: rejected before reading any body.
	over := binary.LittleEndian.AppendUint32(nil, uint32(tcptransport.MaxFrame+1))
	if _, _, err := tcptransport.ReadFrame(bytes.NewReader(over)); err == nil {
		t.Fatal("over-bound frame length did not error")
	}
}

// TestWriteSizedFrame: a streamed body frames exactly like WriteFrame of
// the same bytes, and a body that writes other than its declared length
// is an error.
func TestWriteSizedFrame(t *testing.T) {
	body := []byte("a checkpoint's worth of bytes")
	var got bytes.Buffer
	if err := tcptransport.NewFrameWriter(&got).WriteSizedFrame(SessBlob, len(body), func(w io.Writer) error {
		_, err := w.Write(body)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), frameSeed(SessBlob, body)) {
		t.Fatal("streamed frame differs from WriteFrame")
	}
	for _, n := range []int{len(body) - 1, len(body) + 1} {
		err := tcptransport.NewFrameWriter(io.Discard).WriteSizedFrame(SessBlob, n, func(w io.Writer) error {
			_, err := w.Write(body)
			return err
		})
		if err == nil {
			t.Fatalf("declared %d bytes, wrote %d: no error", n, len(body))
		}
	}
}

// TestSessionVerbValues pins every verb's byte on the wire: retiring a
// verb leaves its value unassigned rather than shifting the ones after it.
func TestSessionVerbValues(t *testing.T) {
	for verb, want := range map[string][2]byte{
		"PUSH": {SessPush, 0x11}, "MODES-SHA": {SessModesSHA, 0x13}, "SAVE": {SessSave, 0x15},
		"SHUTDOWN": {SessShutdown, 0x16}, "PUSH-SKETCH": {SessPushSketch, 0x17},
		"RENDEZVOUS": {SessRendezvous, 0x40}, "OK": {SessOK, 0x41}, "BLOB": {SessBlob, 0x43},
		"ERR": {SessErr, 0x44},
	} {
		if want[0] != want[1] || verbName(want[0]) != verb {
			t.Errorf("%s is 0x%02x named %s, want 0x%02x", verb, want[0], verbName(want[0]), want[1])
		}
	}
	// INIT, SPECTRUM, STATS and FLOATS are retired: nothing answers to
	// their values.
	for _, v := range []byte{0x10, 0x12, 0x14, 0x42} {
		if got, want := verbName(v), fmt.Sprintf("verb(0x%02x)", v); got != want {
			t.Errorf("retired verb 0x%02x is named %s", v, got)
		}
	}
}

// blobSeed is a small valid SAVE checkpoint: 5 rows, 2 modes.
func blobSeed() []byte {
	var buf bytes.Buffer
	modes := mat.NewFromData(5, 2, []float64{1, 0, 0, 1, 0, 0, 0, 0, 0, 0})
	if err := core.WriteState(&buf, core.State{
		Opts:      stream.Options{K: 2, FF: 1},
		Modes:     modes,
		Singular:  []float64{2, 1},
		Snapshots: 4,
	}); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// nextFrame is what a worker writes after a BLOB in the fuzzed streams.
var nextFrame = []byte(`{"rank":1}`)

// readBlobThenNext reads a stream holding a BLOB frame carrying body and
// then an OK frame as the launcher's reply reader does. It fails t unless
// the stream stays readable — a body the reader refuses is drained, so
// the OK frame still reads whole — and returns the decoded frame and the
// bytes allocated while the BLOB was read.
func readBlobThenNext(t *testing.T, body []byte) (sessFrame, uint64) {
	t.Helper()
	r := bytes.NewReader(append(frameSeed(SessBlob, body), frameSeed(SessOK, nextFrame)...))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fr, err := readReply(r)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("a whole BLOB frame broke the stream: %v", err)
	}
	if fr.verb != SessBlob || fr.body != nil {
		t.Fatalf("BLOB frame read as verb 0x%02x with %d body bytes", fr.verb, len(fr.body))
	}
	next, err := readReply(r)
	if err != nil || next.verb != SessOK || !bytes.Equal(next.body, nextFrame) {
		t.Fatalf("frame after the BLOB: verb 0x%02x body %q err %v", next.verb, next.body, err)
	}
	return fr, after.TotalAlloc - before.TotalAlloc
}

// blobAllocBound is what reading a BLOB body of n bytes may allocate: the
// checkpoint's values, which the frame length bounds, plus the fixed
// scratch of the decoder and the drain.
func blobAllocBound(n int) uint64 { return uint64(n) + 96<<10 }

// FuzzReadBlobState drives the launcher's SAVE reader (readReply →
// readBlobState → core.ReadStateExact), which decodes another process's
// checkpoint straight off its stdout: whatever the body, it must not
// panic, must allocate no more than the frame length allows, and must
// leave the stream framed, so the next frame reads whole. A body it
// accepts is exactly one checkpoint.
func FuzzReadBlobState(f *testing.F) {
	valid := blobSeed()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                     // frame shorter than its checkpoint
	f.Add(append(append([]byte{}, valid...), 1, 2)) // trailing bytes
	hostile := append([]byte{}, valid...)
	binary.LittleEndian.PutUint64(hostile[78:], 1<<33) // rows: a hostile mode count
	f.Add(hostile)
	for _, at := range []int{2, 30, 87, len(valid) - 1} { // bit flips: magic, counters, cols, a value
		flipped := append([]byte{}, valid...)
		flipped[at] ^= 0x10
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fr, alloc := readBlobThenNext(t, body)
		if alloc > blobAllocBound(len(body)) {
			t.Fatalf("a %d-byte BLOB allocated %d bytes", len(body), alloc)
		}
		if fr.err != nil {
			return
		}
		st := fr.state
		if r, c := st.Modes.Dims(); c != len(st.Singular) || st.EncodedLen() != len(body) || r < 0 {
			t.Fatalf("accepted a %d-byte body as %dx%d modes and %d values", len(body), r, c, len(st.Singular))
		}
	})
}

// TestReadBlobState: a SAVE checkpoint is decoded straight off the stream,
// and a body that is short, long or declares a hostile mode count is
// refused without breaking the framing or reserving what it declares.
func TestReadBlobState(t *testing.T) {
	valid := blobSeed()
	fr, _ := readBlobThenNext(t, valid)
	if fr.err != nil {
		t.Fatalf("valid checkpoint refused: %v", fr.err)
	}
	var again bytes.Buffer
	if err := core.WriteState(&again, fr.state); err != nil || !bytes.Equal(again.Bytes(), valid) {
		t.Fatalf("decoded checkpoint re-encodes differently (%v)", err)
	}
	hostile := append([]byte{}, valid...)
	binary.LittleEndian.PutUint64(hostile[78:], 1<<33)
	for name, body := range map[string][]byte{
		"short":   valid[:len(valid)-3],
		"long":    append(append([]byte{}, valid...), 1, 2),
		"hostile": hostile,
		"empty":   nil,
	} {
		fr, alloc := readBlobThenNext(t, body)
		if !errors.Is(fr.err, core.ErrBadCheckpoint) {
			t.Errorf("%s body: err %v, want ErrBadCheckpoint", name, fr.err)
		}
		if alloc > blobAllocBound(len(body)) {
			t.Errorf("%s body of %d bytes allocated %d", name, len(body), alloc)
		}
	}
}

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"goparsvd/internal/core"
	"goparsvd/internal/launch"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi/tcptransport"
	"goparsvd/internal/testutil"
)

// TestSketchDecodeSteadyAllocs: a PUSH-SKETCH body of a steady shape (one
// rank's 2048 rows of Q at sketch rank 8, batch width 16) is decoded and
// rebuilt into reused storage, allocating nothing, and the rebuilt block is
// Q·S.
func TestSketchDecodeSteadyAllocs(t *testing.T) {
	rng := testutil.NewRand(1)
	q, s := testutil.RandomDense(2048, 8, rng), testutil.RandomDense(8, 16, rng)
	body := mat.AppendFactorPair(nil, q, s)
	var d sketchDecoder
	scratch := make([]byte, 32<<10)
	r := bytes.NewReader(body)
	decode := func() *mat.Dense {
		r.Reset(body)
		block, err := d.read(r, len(body), scratch)
		if err != nil {
			t.Fatal(err)
		}
		return block
	}
	if got := decode(); !mat.EqualApprox(got, mat.Mul(q, s), 0) {
		t.Fatal("rebuilt block differs from Q·S")
	}
	if n := testing.AllocsPerRun(20, func() { decode() }); n != 0 {
		t.Fatalf("steady PUSH-SKETCH decode allocates %v times, want 0", n)
	}
}

// testFleet is a session world in one process: each rank's session
// serves over a loopback transport (tcptransport.LocalWorld), with pipes
// for its stdin and stdout and the engine options a worker takes on its
// command line, so a test drives the real command loop and counts every
// allocation the ranks, their transports and the driver make.
type testFleet struct {
	t    *testing.T
	ts   []*tcptransport.Transport
	sess []*session
	in   []*io.PipeWriter
	out  []*bufio.Reader
	errs chan error
	// reply is rank 0's last reply body, other the other ranks'; the
	// driver's only buffers.
	reply, other []byte
}

func startFleet(t *testing.T, ranks int, copts core.Options) *testFleet {
	t.Helper()
	ts, err := tcptransport.LocalWorld(ranks, tcptransport.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := &testFleet{t: t, ts: ts, errs: make(chan error, ranks)}
	for r, tr := range ts {
		inR, inW := io.Pipe()
		outR, outW := io.Pipe()
		s := newSession(tr, r, copts, bufio.NewWriter(outW))
		f.sess = append(f.sess, s)
		f.in = append(f.in, inW)
		f.out = append(f.out, bufio.NewReaderSize(outR, 1<<16))
		go func() {
			err := s.serve(bufio.NewReaderSize(inR, 1<<16))
			outW.CloseWithError(io.ErrUnexpectedEOF)
			f.errs <- err
		}()
	}
	t.Cleanup(func() {
		for _, tr := range f.ts {
			tr.Abort()
		}
		for _, w := range f.in {
			w.Close()
		}
		for range f.ts {
			<-f.errs
		}
	})
	return f
}

// do writes frames[r] to rank r, in rank order — every rank reads its
// whole command before it enters a collective — and reads one reply per
// rank, requiring verb from rank 0 and others from the other ranks. Rank
// 0's reply body is left in f.reply.
func (f *testFleet) do(frames [][]byte, verb, others byte) {
	for r, w := range f.in {
		if _, err := w.Write(frames[r]); err != nil {
			f.t.Fatalf("writing to rank %d: %v", r, err)
		}
	}
	for r, br := range f.out {
		v, n, err := tcptransport.ReadFrameHeader(br)
		if err != nil {
			f.t.Fatalf("rank %d reply: %v", r, err)
		}
		buf := &f.other
		if r == 0 {
			buf = &f.reply
		}
		if cap(*buf) < n {
			*buf = make([]byte, n)
		}
		*buf = (*buf)[:n]
		body := *buf
		if _, err := io.ReadFull(br, body); err != nil {
			f.t.Fatalf("rank %d reply body: %v", r, err)
		}
		want := verb
		if r > 0 {
			want = others
		}
		if v != want {
			f.t.Fatalf("rank %d replied 0x%02x (%s), want 0x%02x", r, v, body, want)
		}
	}
}

// frame is one command frame carrying body.
func frame(verb byte, body []byte) []byte {
	return append(tcptransport.AppendFrameHeader(nil, verb, len(body)), body...)
}

// TestSessionSteadyStateAllocs: after warm-up, PUSH, MODES-SHA and SAVE
// each allocate nothing on a two-rank fleet at the fit-distributed
// shape (2048 rows per rank, K = 16, B = 16): the count covers the whole
// process — both ranks' command loops and engines, their transports'
// socket readers and the driver — so it is zero on rank 0 and on rank 1.
// The MODES-SHA digest and the SAVE frame are pinned to what the parent
// layout produces: HashModeRows and core.WriteState of the stacked modes.
func TestSessionSteadyStateAllocs(t *testing.T) {
	const ranks, rows, k, b = 2, 2048, 16, 16
	f := startFleet(t, ranks, core.Options{K: k, ForgetFactor: 1})
	all := func(fr []byte) [][]byte { return [][]byte{fr, fr} }

	rng := testutil.NewRand(7)
	var pushes [3][][]byte // three batches, each rank's block framed
	for i := range pushes {
		for range ranks {
			blk := testutil.RandomDense(rows, b, rng)
			body := mat.AppendBlock(nil, 0, rows, b, blk.RawData())
			pushes[i] = append(pushes[i], frame(launch.SessPush, body))
		}
	}
	n := 0
	push := func() {
		f.do(pushes[n%len(pushes)], launch.SessOK, launch.SessOK)
		n++
	}
	modesSHAFrames := all(frame(launch.SessModesSHA, nil))
	saveFrames := all(frame(launch.SessSave, nil))
	modesSHA := func() { f.do(modesSHAFrames, launch.SessOK, launch.SessOK) }
	save := func() { f.do(saveFrames, launch.SessBlob, launch.SessOK) }
	for range 3 { // seed, then two updates
		push()
	}

	// Pins against the stacked modes, read while every rank idles.
	stacked := mat.HStack(f.sess[0].eng.ModeRows(), f.sess[1].eng.ModeRows())
	modesSHA()
	st, err := launch.DecodeStatus(f.reply)
	if err != nil {
		t.Fatal(err)
	}
	if want := launch.HashModeRows(stacked); st.ModesSHA != want {
		t.Fatalf("MODES-SHA reported %s, want %s", st.ModesSHA, want)
	}
	if got, want := st.Spectrum(), f.sess[0].eng.SingularValues(); !testutil.CloseSlices(got, want, 0) {
		t.Fatalf("MODES-SHA reported spectrum %v, want %v", got, want)
	}
	save()
	var want bytes.Buffer
	eng := f.sess[0].eng
	if err := core.WriteState(&want, core.State{
		Opts:       eng.Options(),
		ModeBlocks: []*mat.Dense{stacked},
		Singular:   eng.SingularValues(),
		Iterations: eng.Iterations(),
		Snapshots:  eng.SnapshotsSeen(),
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.reply, want.Bytes()) {
		t.Fatalf("SAVE frame body (%d bytes) differs from core.WriteState of the stacked modes (%d bytes)", len(f.reply), want.Len())
	}

	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, c := range []struct {
		verb string
		op   func()
	}{{"PUSH", push}, {"MODES-SHA", modesSHA}, {"SAVE", save}} {
		if a := testing.AllocsPerRun(20, c.op); a != 0 {
			t.Errorf("steady %s allocates %v times per command across both ranks, want 0", c.verb, a)
		}
	}
}

// TestSessionLifetimeBytes: a worker never collects — its heap stays under
// the collector's minimum goal — so every byte it allocates over a session
// stays resident. On a two-rank fleet at the fit-distributed shape (2048
// rows per rank, K = B = 16), 200 PUSHes with a MODES-SHA and a
// SAVE after every fourth allocate, across the whole process, no more than
// each rank's (K+B)×M_r engine buffer, the one mesh payload rank 0
// receives the other rank's mode rows in, and a fixed budget for I/O
// buffers and the seeding's small temporaries: no staging copy of a batch,
// of the seeded modes or of the gathered modes, and no frame copy of a
// send.
func TestSessionLifetimeBytes(t *testing.T) {
	const ranks, rows, k, b = 2, 2048, 16, 16
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	rng := testutil.NewRand(11)
	var pushes [3][][]byte
	for i := range pushes {
		for range ranks {
			blk := testutil.RandomDense(rows, b, rng)
			pushes[i] = append(pushes[i], frame(launch.SessPush, mat.AppendBlock(nil, 0, rows, b, blk.RawData())))
		}
	}
	all := func(fr []byte) [][]byte { return [][]byte{fr, fr} }
	modesSHAFrames := all(frame(launch.SessModesSHA, nil))
	saveFrames := all(frame(launch.SessSave, nil))

	f := startFleet(t, ranks, core.Options{K: k, ForgetFactor: 1})
	// The driver's reply buffers hold a SAVE body from the start, so the
	// count below is the ranks' alone.
	f.reply, f.other = make([]byte, 0, 1<<20), make([]byte, 0, 4<<10)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range 200 {
		f.do(pushes[i%len(pushes)], launch.SessOK, launch.SessOK)
		if i%4 == 3 {
			f.do(modesSHAFrames, launch.SessOK, launch.SessOK)
			f.do(saveFrames, launch.SessBlob, launch.SessOK)
		}
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	const (
		buffer  = (k + b) * rows * 8 // each rank's engine buffer
		payload = k * rows * 8       // rank 1's mode rows, received by rank 0
		fixed   = 768 << 10          // both ranks' I/O buffers and seeding temporaries
	)
	t.Logf("%d bytes allocated over the session (%d per rank)", got, got/ranks)
	if limit := uint64(ranks*buffer + payload + fixed); got > limit {
		t.Errorf("a session allocated %d bytes across both ranks, want at most %d: 2×%d buffer + %d payload + %d fixed", got, limit, buffer, payload, fixed)
	}
}

// TestPushRefusesNonFiniteValue: a PUSH carrying a non-finite value is
// refused in one ERR frame naming the value and its index in the block,
// with the same text whether it is the seeding PUSH or a later one: both
// go through the one decoder.
func TestPushRefusesNonFiniteValue(t *testing.T) {
	const rows, b, bad = 40, 4, 77
	good := testutil.RandomDense(rows, b, testutil.NewRand(3))
	poisoned := good.Clone()
	poisoned.RawData()[bad] = math.Inf(-1)
	push := func(m *mat.Dense) []byte {
		return frame(launch.SessPush, mat.AppendBlock(nil, 0, rows, b, m.RawData()))
	}
	// refusal feeds a one-rank fleet the accepted pushes, then the last
	// one, and returns the text of the ERR it answers that with.
	refusal := func(pushes ...[]byte) string {
		f := startFleet(t, 1, core.Options{K: 2, ForgetFactor: 1})
		last := len(pushes) - 1
		for _, p := range pushes[:last] {
			f.do([][]byte{p}, launch.SessOK, launch.SessOK)
		}
		// The refusing rank stops reading mid-body; closing the pipe at
		// cleanup ends this write.
		go f.in[0].Write(pushes[last])
		verb, n, err := tcptransport.ReadFrameHeader(f.out[0])
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(f.out[0], body); err != nil {
			t.Fatal(err)
		}
		if verb != launch.SessErr {
			t.Fatalf("after %d accepted pushes a poisoned PUSH got 0x%02x (%s), want ERR", last, verb, body)
		}
		return string(body)
	}
	first := refusal(push(poisoned))
	later := refusal(push(good), push(poisoned))
	want := fmt.Sprintf("non-finite value (%g) at index %d", math.Inf(-1), bad)
	if !strings.Contains(first, want) || first != later {
		t.Fatalf("seeding PUSH refused with %q, a later one with %q; want both naming %q", first, later, want)
	}
}

package tcptransport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
)

// appendData appends the data frame carrying m as the layout defines it:
// the frame header, then the message as one block. writeData must send
// exactly these bytes.
func appendData(buf []byte, m mpi.Message) []byte {
	buf = AppendFrameHeader(buf, kindData, MessageBodyLen(len(m.Data)))
	return AppendMessageBody(buf, m)
}

// decodeMessageBody parses a data-frame body held in memory, value by
// value: the reference the streaming reader (readMessageBody) is checked
// against.
func decodeMessageBody(body []byte) (mpi.Message, error) {
	if len(body) < mat.BlockHeaderLen {
		return mpi.Message{}, fmt.Errorf("tcptransport: data frame truncated (%d bytes)", len(body))
	}
	m, count, err := parseMessageHeader(body, len(body))
	if err != nil || count == 0 {
		return m, err
	}
	m.Data = make([]float64, count)
	vals := body[mat.BlockHeaderLen:]
	for i := range m.Data {
		m.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(vals[8*i:]))
	}
	return m, nil
}

// TestWriteDataMatchesLayout: a send writes the data frame's layout byte
// for byte through the link's writer, for payloads smaller and larger than
// its buffer and after other bytes already sit in it.
func TestWriteDataMatchesLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 5, 300, 5000} {
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		m := mpi.Message{Tag: -2, Data: data, Rows: 1, Cols: n}
		for _, size := range []int{64, 1 << 10, 1 << 16} {
			for _, pending := range []int{0, 3, size - 2} {
				var w bytes.Buffer
				bw := bufio.NewWriterSize(&w, size)
				bw.Write(make([]byte, pending))
				err := writeData(bw, m)
				if err == nil {
					err = bw.Flush()
				}
				want := appendData(make([]byte, pending), m)
				if err != nil || !bytes.Equal(w.Bytes(), want) {
					t.Fatalf("%d values, buffer %d, %d pending: wrote %d bytes (%v), want the %d-byte frame", n, size, pending, w.Len(), err, len(want))
				}
			}
		}
	}
}

// TestWireDataRoundTrip property-checks the data-frame codec directly:
// random shapes (including empty and single-element) and adversarial float
// bit patterns must survive encode → frame read → decode unchanged.
func TestWireDataRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, math.MaxFloat64}
	cases := []mpi.Message{
		{Tag: 0, Data: nil, Rows: -1},                           // empty vector
		{Tag: 1, Data: []float64{42}, Rows: -1},                 // single element
		{Tag: -3, Data: []float64{}, Rows: 0, Cols: 0},          // empty matrix
		{Tag: 9, Data: specials, Rows: 2, Cols: 3},              // special values
		{Tag: 1 << 40, Data: []float64{1, 2}, Rows: 1, Cols: 2}, // tag beyond 32 bits
	}
	for trial := 0; trial < 50; trial++ {
		r, c := rng.Intn(12), rng.Intn(12)
		data := make([]float64, r*c)
		for i := range data {
			data[i] = specials[rng.Intn(len(specials))]
			if rng.Intn(2) == 0 {
				data[i] = rng.NormFloat64()
			}
		}
		cases = append(cases, mpi.Message{Tag: rng.Intn(100) - 50, Data: data, Rows: r, Cols: c})
	}
	for i, want := range cases {
		frame := appendData(nil, want)
		kind, body, err := ReadFrame(bytes.NewReader(frame))
		if err != nil || kind != kindData {
			t.Fatalf("case %d: ReadFrame kind=%d err=%v", i, kind, err)
		}
		got, err := decodeMessageBody(body)
		if err != nil {
			t.Fatalf("case %d: decodeMessageBody: %v", i, err)
		}
		if got.Tag != want.Tag || got.Rows != want.Rows || got.Cols != want.Cols || len(got.Data) != len(want.Data) {
			t.Fatalf("case %d: header mismatch: got %+v want %+v", i, got, want)
		}
		for j := range want.Data {
			if math.Float64bits(got.Data[j]) != math.Float64bits(want.Data[j]) {
				t.Fatalf("case %d: element %d changed bits: %x -> %x", i, j,
					math.Float64bits(want.Data[j]), math.Float64bits(got.Data[j]))
			}
		}
	}
}

// TestMeshFrameReadAllocs: the mesh reader decodes a 16×16 data frame
// straight from the stream into the message's values, with no body buffer
// between, and once the consumer recycles each payload into the link's
// pool the next frame is decoded into it: a steady stream of data frames
// allocates nothing.
func TestMeshFrameReadAllocs(t *testing.T) {
	want := mpi.Message{Tag: 7, Rows: 16, Cols: 16, Data: make([]float64, 256)}
	for i := range want.Data {
		want.Data[i] = float64(i) - 0.5
	}
	frame := appendData(nil, want)
	r := bytes.NewReader(frame)
	scratch := make([]byte, 4<<10)
	var pool mpi.BufferPool
	read := func() mpi.Message {
		r.Reset(frame)
		kind, m, err := readMeshFrame(r, scratch, &pool)
		if err != nil || kind != kindData {
			t.Fatalf("readMeshFrame kind=%d err=%v", kind, err)
		}
		return m
	}
	if got := read(); !bytes.Equal(appendData(nil, got), frame) {
		t.Fatal("streamed message differs from the one sent")
	}
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	if n := testing.AllocsPerRun(50, func() { pool.Put(read().Data) }); n != 0 {
		t.Fatalf("reading a 16x16 data frame into recycled storage allocates %v times, want 0", n)
	}
}

func TestWireHandshakeFrames(t *testing.T) {
	frame := appendHello(nil, 3, "10.0.0.7:9000")
	kind, body, err := ReadFrame(bytes.NewReader(frame))
	if err != nil || kind != kindHello {
		t.Fatalf("hello: kind=%d err=%v", kind, err)
	}
	rank, addr, err := decodeHello(body)
	if err != nil || rank != 3 || addr != "10.0.0.7:9000" {
		t.Fatalf("decodeHello = (%d, %q, %v)", rank, addr, err)
	}

	frame = appendIdent(nil, 11)
	kind, body, err = ReadFrame(bytes.NewReader(frame))
	if err != nil || kind != kindIdent {
		t.Fatalf("ident: kind=%d err=%v", kind, err)
	}
	if rank, err := decodeIdent(body); err != nil || rank != 11 {
		t.Fatalf("decodeIdent = (%d, %v)", rank, err)
	}

	addrs := []string{"", "127.0.0.1:41001", "127.0.0.1:41002", ""}
	frame = appendTable(nil, addrs)
	kind, body, err = ReadFrame(bytes.NewReader(frame))
	if err != nil || kind != kindTable {
		t.Fatalf("table: kind=%d err=%v", kind, err)
	}
	got, err := decodeTable(body)
	if err != nil || len(got) != len(addrs) {
		t.Fatalf("decodeTable = (%v, %v)", got, err)
	}
	for i := range addrs {
		if got[i] != addrs[i] {
			t.Fatalf("table[%d] = %q, want %q", i, got[i], addrs[i])
		}
	}
}

func TestWireRejectsCorruption(t *testing.T) {
	// A zero-length frame and an absurd length must both be rejected.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0, 1})); err == nil {
		t.Error("zero-length frame accepted")
	}
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 1})); err == nil {
		t.Error("oversized frame accepted")
	}
	// A data body whose float count disagrees with its length is corrupt.
	frame := appendData(nil, mpi.Message{Tag: 1, Data: []float64{1, 2, 3}, Rows: -1})
	if _, err := decodeMessageBody(frame[5 : len(frame)-8]); err == nil {
		t.Error("truncated data body accepted")
	}
	// Hello/ident without the magic must be rejected.
	if _, _, err := decodeHello(make([]byte, 14)); err == nil {
		t.Error("hello without magic accepted")
	}
	if _, err := decodeIdent(make([]byte, 12)); err == nil {
		t.Error("ident without magic accepted")
	}
}

// TestIdleTimeoutAborts verifies deadline-based failure detection: a peer
// that goes silent (heartbeats stopped, nothing sent) is declared dead
// after IdleTimeout and the survivor's blocked Recv unwinds via the abort
// path instead of hanging — over dialed and over adopted links alike.
func TestIdleTimeoutAborts(t *testing.T) {
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			ts, err := w.build(2, Options{IdleTimeout: 400 * time.Millisecond, DialTimeout: 10 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer ts[0].Close()
			defer ts[1].Close()
			// Silence rank 1: stop its heartbeat without any shutdown
			// protocol, as if the process were wedged (not crashed — the
			// socket stays open).
			ts[1].pingOnce.Do(func() { close(ts[1].stopPing) })

			done := make(chan error, 1)
			go func() {
				_, err := ts[0].Recv(0, 1) // nothing will ever arrive
				done <- err
			}()
			select {
			case err := <-done:
				if err != mpi.ErrAborted {
					t.Fatalf("Recv after peer went silent: err = %v, want ErrAborted", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("idle-timeout failure detection never fired")
			}
		})
	}
}

// TestAbruptDisconnectAborts verifies the crash path: a peer that vanishes
// without the bye handshake (connection reset/EOF) aborts the survivor.
func TestAbruptDisconnectAborts(t *testing.T) {
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			ts, err := w.build(2, Options{IdleTimeout: 30 * time.Second, DialTimeout: 10 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer ts[0].Close()
			// Simulate a crash: rank 1's socket dies with no shutdown
			// protocol.
			ts[1].links[0].conn.Close()

			done := make(chan error, 1)
			go func() {
				_, err := ts[0].Recv(0, 1)
				done <- err
			}()
			select {
			case err := <-done:
				if err != mpi.ErrAborted {
					t.Fatalf("Recv after peer crash: err = %v, want ErrAborted", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("crash detection never fired")
			}
		})
	}
}

// TestGracefulCloseDeliversPending verifies bye semantics: messages sent
// before a graceful Close stay receivable, and only then does the stream
// report termination.
func TestGracefulCloseDeliversPending(t *testing.T) {
	ts, err := LocalWorld(2, Options{DialTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer ts[0].Close()
	if err := ts[1].Send(1, 0, mpi.Message{Tag: 5, Data: []float64{1, 2}, Rows: -1}); err != nil {
		t.Fatal(err)
	}
	ts[1].Close()
	m, err := ts[0].Recv(0, 1)
	if err != nil || m.Tag != 5 || len(m.Data) != 2 {
		t.Fatalf("pending message lost across graceful close: m=%+v err=%v", m, err)
	}
	if _, err := ts[0].Recv(0, 1); err != mpi.ErrAborted {
		t.Fatalf("post-close Recv err = %v, want ErrAborted", err)
	}
}

// TestAppendMessageBodyBytes pins the data-body bytes against a field-by-
// field reference encoder, with and without a prefix already in the
// buffer: sizing the body once must not change a single wire byte.
func TestAppendMessageBodyBytes(t *testing.T) {
	ref := func(buf []byte, m mpi.Message) []byte {
		for _, v := range []uint64{uint64(int64(m.Tag)), uint64(int64(m.Rows)), uint64(int64(m.Cols)), uint64(len(m.Data))} {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		for _, v := range m.Data {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		return buf
	}
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 7, 64, 4096} {
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		if n > 2 {
			data[1], data[2] = math.NaN(), math.Copysign(0, -1)
		}
		m := mpi.Message{Tag: -3, Rows: n, Cols: 1, Data: data}
		for _, prefix := range [][]byte{nil, []byte("hdr")} {
			got := AppendMessageBody(append([]byte(nil), prefix...), m)
			want := ref(append([]byte(nil), prefix...), m)
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d prefix=%q: body bytes differ from the reference encoding", n, prefix)
			}
			if len(got)-len(prefix) != MessageBodyLen(n) {
				t.Fatalf("n=%d: body is %d bytes, MessageBodyLen says %d", n, len(got)-len(prefix), MessageBodyLen(n))
			}
		}
	}
}

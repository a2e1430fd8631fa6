package tcptransport

// Fuzz harness for the mesh's frame boundary: ReadFrame and the handshake
// and data decoders parse bytes from another process, so they must never
// panic and never allocate the declared length of a frame that does not
// arrive, and whatever they accept must re-encode to the bytes read. Run
// the seeds with `go test`, or explore with
// `go test -fuzz FuzzReadFrame ./internal/mpi/tcptransport`.

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"goparsvd/internal/mpi"
)

func FuzzReadFrame(f *testing.F) {
	f.Add(appendHello(nil, 2, "127.0.0.1:4100"))
	f.Add(appendIdent(nil, 3))
	f.Add(appendTable(nil, []string{"", "127.0.0.1:4101", "h:2"}))
	f.Add(appendData(nil, mpi.Message{Tag: -4, Rows: 1, Cols: 2, Data: []float64{1, -0.5}}))
	f.Add(appendControl(nil, kindBye))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		kind, body, err := ReadFrame(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// One read chunk, plus room for the runtime's own bookkeeping.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(data))+frameChunk+64<<10 {
			t.Fatalf("reading a %d-byte frame allocated %d bytes", len(data), grew)
		}
		// The mesh reader decodes a data frame straight from the stream:
		// it must hold the same allocation bound and agree with the
		// in-memory decoder on every frame.
		scratch := make([]byte, 4<<10)
		runtime.ReadMemStats(&before)
		mkind, mm, merr := readMeshFrame(bytes.NewReader(data), scratch, nil)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(data))+frameChunk+64<<10 {
			t.Fatalf("streaming a %d-byte frame allocated %d bytes", len(data), grew)
		}
		if err != nil {
			if merr == nil {
				t.Fatalf("mesh reader accepted a frame ReadFrame refuses: %v", err)
			}
			return
		}
		if kind == kindData {
			m, derr := decodeMessageBody(body)
			if (derr == nil) != (merr == nil) {
				t.Fatalf("in-memory decode err %v, streaming decode err %v", derr, merr)
			}
			if derr == nil && !bytes.Equal(appendData(nil, m), appendData(nil, mm)) {
				t.Fatal("streaming decode differs from the in-memory decode")
			}
		} else if merr != nil || mkind != kind {
			t.Fatalf("mesh reader read kind %d (err %v), ReadFrame kind %d", mkind, merr, kind)
		}
		var again []byte
		switch kind {
		case kindHello:
			rank, addr, err := decodeHello(body)
			if err != nil {
				return
			}
			again = appendHello(nil, rank, addr)
		case kindTable:
			addrs, err := decodeTable(body)
			if err != nil {
				return
			}
			again = appendTable(nil, addrs)
		case kindIdent:
			rank, err := decodeIdent(body)
			if err != nil {
				return
			}
			again = appendIdent(nil, rank)
		case kindData:
			m, err := decodeMessageBody(body)
			if err != nil {
				return
			}
			again = appendData(nil, m)
		default:
			var buf bytes.Buffer
			if err := WriteFrame(&buf, kind, body); err != nil {
				t.Fatal(err)
			}
			again = buf.Bytes()
		}
		if !bytes.Equal(again, data[:len(again)]) {
			t.Fatalf("kind %d frame did not round-trip", kind)
		}
	})
}

// TestRendezvousRefusesHostileFrameLength: a connection to a hand-started
// rank 0's rendezvous listener that declares a 1 GiB frame and sends
// nothing after its header fails the handshake having allocated at most
// one read chunk, not the declared length.
func TestRendezvousRefusesHostileFrameLength(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	done := make(chan error, 1)
	go func() {
		tr, err := New(Options{Rank: 0, Size: 2, Listener: l, DialTimeout: 10 * time.Second})
		if err == nil {
			tr.Close()
		}
		done <- err
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(binary.LittleEndian.AppendUint32(nil, 1<<30)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte{kindHello}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	err = <-done
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("rank 0 accepted a hello frame that never arrived")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Fatalf("a 5-byte header declaring 1 GiB made the handshake allocate %d bytes", got)
	}
	t.Logf("handshake error: %v", err)
}

package launch

// The session protocol: the framed stdin/stdout command stream between a
// launcher and a persistent parsvd-worker fleet, the only protocol a
// worker speaks. Every worker process stays alive across operations and is
// fed real data over the wire. Frames share the shape of the tcptransport
// wire format:
//
//	frame := length:u32le  verb:u8  body
//
// with length counting the verb byte plus the body. Launcher→worker verbs
// (on worker stdin):
//
//	INIT      body = JSON EngineSpec (engine options for every rank)
//	PUSH      body = data body (this rank's row block of one snapshot batch,
//	          in the tcptransport data-body layout — the same bit-exact
//	          float64 framing the rank mesh itself uses). The launcher
//	          writes it straight from a row view of the caller's batch and
//	          the worker decodes it straight into its reusable block, each
//	          through a fixed scratch buffer (BlockReader)
//	PUSH-SKETCH body = factor-pair body (DecodeFactorPair): this rank's row
//	          block of the orthonormal sketch basis Q plus the full L×B
//	          projection S = QᵀA; the worker reconstructs its row block of
//	          the batch as Q_r·S and feeds the same update path as PUSH,
//	          so only L·(M_r+B) floats cross the wire per rank instead of
//	          the raw M_r×B block
//	SPECTRUM  empty body; every rank replies FLOATS(singular values)
//	MODES-SHA empty body; collective mode gather, rank 0's OK reply carries
//	          the SHA-256 fingerprint of the assembled M×K matrix
//	STATS     empty body; every rank replies OK with fresh counters
//	SAVE      empty body; collective gather, rank 0 replies BLOB holding a
//	          facade-compatible (serial) checkpoint of the global state
//	SHUTDOWN  empty body; barrier, transport teardown, OK, clean exit
//
// Worker→launcher verbs (on worker stdout):
//
//	RENDEZVOUS body = rank 0's mesh rendezvous address (printed before the
//	           TCP fabric is established, so the launcher can spawn the
//	           other ranks)
//	OK         body = JSON SessionStatus (rank, traffic counters, ingest
//	           counters, optional modes hash)
//	FLOATS     body = data body carrying a vector
//	BLOB       body = opaque bytes (checkpoint payload)
//	ERR        body = UTF-8 error text; the worker aborts its transport and
//	           exits nonzero right after writing it, so an ERR always
//	           poisons the whole session
//
// The exchange is strict lockstep: the launcher writes one command frame
// to every rank (concurrently — collective commands must reach all ranks
// before any reply is awaited), then reads exactly one reply frame per
// rank. Anything else on a worker's stdout is a protocol violation and
// kills the fleet.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/mpi/tcptransport"
)

// Session protocol verbs. Command verbs flow launcher→worker, reply verbs
// worker→launcher; the numeric spaces are disjoint so a desynchronized
// stream is detected instead of misread.
const (
	SessInit byte = 0x10 + iota
	SessPush
	SessSpectrum
	SessModesSHA
	SessStats
	SessSave
	SessShutdown
	// SessPushSketch was appended after SessShutdown so no pre-existing
	// verb value shifted when the compressed push landed.
	SessPushSketch
)

const (
	SessRendezvous byte = 0x40 + iota
	SessOK
	SessFloats
	SessBlob
	SessErr
)

// verbName names a session verb for error messages.
func verbName(v byte) string {
	switch v {
	case SessInit:
		return "INIT"
	case SessPush:
		return "PUSH"
	case SessSpectrum:
		return "SPECTRUM"
	case SessModesSHA:
		return "MODES-SHA"
	case SessStats:
		return "STATS"
	case SessSave:
		return "SAVE"
	case SessShutdown:
		return "SHUTDOWN"
	case SessPushSketch:
		return "PUSH-SKETCH"
	case SessRendezvous:
		return "RENDEZVOUS"
	case SessOK:
		return "OK"
	case SessFloats:
		return "FLOATS"
	case SessBlob:
		return "BLOB"
	case SessErr:
		return "ERR"
	default:
		return fmt.Sprintf("verb(0x%02x)", v)
	}
}

// maxSessionFrame bounds one session frame: 1 GiB of payload plus slack,
// matching the rank mesh's own frame bound. Larger lengths are treated as
// a corrupted stream.
const maxSessionFrame = 1<<30 + 64

// frameChunk is the read granularity for frame bodies: a frame whose
// declared length exceeds the bytes actually sent fails after at most one
// chunk of allocation, so a hostile length prefix cannot force a huge
// allocation against a truncated stream.
const frameChunk = 1 << 20

// EngineSpec is the INIT payload: everything a worker needs to build its
// core engine. It mirrors the facade's configuration (K, forget factor,
// APMOS init truncation, randomization) — the launcher derives it from
// the parsvd options, so wire-fed distributed runs honor the same knobs
// as the in-process backends.
type EngineSpec struct {
	K          int     `json:"k"`
	FF         float64 `json:"ff"`
	R1         int     `json:"r1"`
	Method     int     `json:"method,omitempty"`
	LowRank    bool    `json:"low_rank,omitempty"`
	Oversample int     `json:"oversample,omitempty"`
	PowerIters int     `json:"power_iters,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
}

// SessionStatus is the JSON body of every OK reply: the rank's identity,
// its traffic counters as of this reply, and the engine's ingest counters
// (identical on every rank — they advance in lockstep). Piggybacking the
// counters on every acknowledgment keeps the launcher's Stats reads free
// of extra wire round trips.
type SessionStatus struct {
	Rank       int    `json:"rank"`
	Messages   int64  `json:"messages"`
	BytesSent  int64  `json:"bytes_sent"`
	BytesRecv  int64  `json:"bytes_recv"`
	Rows       int    `json:"rows"`       // this rank's row-block height
	Snapshots  int    `json:"snapshots"`  // global ingested snapshot columns
	Iterations int    `json:"iterations"` // streaming updates (Initialize excluded)
	ModesSHA   string `json:"modes_sha,omitempty"`
}

// WriteSessionFrame writes one framed message. The body may be nil.
func WriteSessionFrame(w io.Writer, verb byte, body []byte) error {
	if len(body)+1 > maxSessionFrame {
		return fmt.Errorf("launch: session frame body of %d bytes exceeds the %d-byte bound", len(body), maxSessionFrame)
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(body)+1))
	hdr[4] = verb
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(body) > 0 {
		if _, err := w.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// WriteSizedFrame writes one framed message whose n-byte body is produced
// by body writing to w directly, so a large body (a SAVE checkpoint) is
// never assembled in memory. It errors if body writes other than n bytes;
// the stream is then corrupt and the session must end.
func WriteSizedFrame(w io.Writer, verb byte, n int, body func(io.Writer) error) error {
	if n+1 > maxSessionFrame {
		return fmt.Errorf("launch: session frame body of %d bytes exceeds the %d-byte bound", n, maxSessionFrame)
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(n+1))
	hdr[4] = verb
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	cw := &countingWriter{w: w}
	if err := body(cw); err != nil {
		return err
	}
	if cw.n != n {
		return fmt.Errorf("launch: %s frame declared %d body bytes, wrote %d", verbName(verb), n, cw.n)
	}
	return nil
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}

// ReadSessionFrame reads one framed message: ReadFrameHeader, then
// ReadFrameBody.
func ReadSessionFrame(r io.Reader) (verb byte, body []byte, err error) {
	verb, n, err := ReadFrameHeader(r)
	if err != nil {
		return 0, nil, err
	}
	body, err = ReadFrameBody(r, n)
	return verb, body, err
}

// ReadFrameHeader reads a frame's length prefix and verb and returns the
// length of the body still to be read. The declared length is validated
// against maxSessionFrame, so a hostile prefix is refused before any
// allocation. A stream that ends cleanly before the frame returns io.EOF.
func ReadFrameHeader(r io.Reader) (verb byte, n int, err error) {
	var hdr [5]byte
	if _, err = io.ReadFull(r, hdr[:4]); err != nil {
		return 0, 0, err
	}
	size := binary.LittleEndian.Uint32(hdr[:4])
	if size < 1 || size > maxSessionFrame {
		return 0, 0, fmt.Errorf("launch: invalid session frame length %d", size)
	}
	if _, err = io.ReadFull(r, hdr[4:]); err != nil {
		return 0, 0, fmt.Errorf("launch: short session frame: %w", err)
	}
	return hdr[4], int(size) - 1, nil
}

// ReadFrameBody reads an n-byte frame body in bounded chunks, so a
// truncated stream errors out after at most frameChunk bytes of
// allocation beyond what it carried instead of committing gigabytes up
// front.
func ReadFrameBody(r io.Reader, n int) ([]byte, error) {
	body := make([]byte, 0, minInt(n, frameChunk))
	for remaining := n; remaining > 0; {
		chunk := minInt(remaining, frameChunk)
		off := len(body)
		// Extend in place: the bytes are read straight into the body, not
		// into a zero-filled temporary appended to it.
		body = slices.Grow(body, chunk)[:off+chunk]
		if _, err := io.ReadFull(r, body[off:]); err != nil {
			return nil, fmt.Errorf("launch: short session frame: %w", err)
		}
		remaining -= chunk
	}
	return body, nil
}

// blockHeaderLen is a data body's header: tag, rows, cols and value
// count, each eight bytes (tcptransport.MessageBodyLen(0)).
const blockHeaderLen = 32

// blockScratch is the fixed buffer a block crosses a process boundary
// through, in either direction.
const blockScratch = 32 << 10

// writeBlockFrame writes one session frame whose body is prefix followed
// by the data body of each block: the bytes WriteSessionFrame writes for
// that body, encoded straight from the blocks' storage through scratch, so
// no frame body is ever built. The blocks may be row views of a caller's
// matrix.
func writeBlockFrame(w io.Writer, scratch []byte, verb byte, prefix []byte, blocks ...*mat.Dense) error {
	size := 1 + len(prefix)
	for _, b := range blocks {
		size += tcptransport.MessageBodyLen(len(b.RawData()))
	}
	if size > maxSessionFrame {
		return fmt.Errorf("launch: session frame body of %d bytes exceeds the %d-byte bound", size-1, maxSessionFrame)
	}
	buf := binary.LittleEndian.AppendUint32(scratch[:0], uint32(size))
	buf = append(buf, verb)
	buf = append(buf, prefix...)
	var err error
	for _, b := range blocks {
		if cap(buf)-len(buf) < blockHeaderLen {
			if _, err = w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		r, c := b.Dims()
		buf = binary.LittleEndian.AppendUint64(buf, 0) // tag
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(b.RawData())))
		if buf, err = mat.WriteFloats(w, buf, b.RawData()); err != nil {
			return err
		}
	}
	_, err = w.Write(buf)
	return err
}

// BlockReader decodes data bodies — a PUSH payload, and each factor of a
// PUSH-SKETCH payload — straight from a stream into one reusable block,
// through a fixed scratch buffer. It enforces the invariants a snapshot
// block must satisfy before it may enter a collective update: positive
// dims, a value count matching them and the body length, and finite values
// only. NaN or Inf snapshot data is rejected here — at the protocol
// boundary — because a non-finite batch would otherwise poison the
// decomposition silently (or desynchronize ranks that validate
// differently).
//
// The zero value is ready to use. Once block shapes are steady, Read
// allocates nothing.
type BlockReader struct {
	scratch [blockScratch]byte
	data    []float64
	block   *mat.Dense
}

// Read decodes one n-byte data body from r. The block it returns is the
// reader's own storage, valid until the next Read. The header is checked
// before any value is read, and storage grows only as values arrive.
func (br *BlockReader) Read(r io.Reader, n int) (*mat.Dense, error) {
	if n < blockHeaderLen {
		return nil, fmt.Errorf("launch: snapshot block of %d bytes is shorter than its %d-byte header", n, blockHeaderLen)
	}
	hdr := br.scratch[:blockHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("launch: short snapshot block: %w", err)
	}
	rows := int64(binary.LittleEndian.Uint64(hdr[8:]))
	cols := int64(binary.LittleEndian.Uint64(hdr[16:]))
	count := binary.LittleEndian.Uint64(hdr[24:])
	payload := n - blockHeaderLen
	// Divide rather than multiply: rows·cols or 8·count wraps for hostile
	// values (rows = 2^61+1, cols = 8 multiplies to 8).
	switch {
	case rows < 1 || cols < 1:
		return nil, fmt.Errorf("launch: snapshot block with non-positive dims %dx%d", rows, cols)
	case payload%8 != 0 || count != uint64(payload/8):
		return nil, fmt.Errorf("launch: snapshot block declares %d values but carries %d bytes", count, payload)
	case count%uint64(cols) != 0 || count/uint64(cols) != uint64(rows):
		return nil, fmt.Errorf("launch: snapshot block carries %d values for a %dx%d matrix", count, rows, cols)
	}
	data, err := mat.ReadFloats(r, br.data[:0], int(count), br.scratch[:])
	br.data = data
	if err != nil {
		return nil, fmt.Errorf("launch: short snapshot block: %w", err)
	}
	if i := mat.FirstNonFinite(data); i >= 0 {
		return nil, fmt.Errorf("launch: snapshot block contains a non-finite value (%g)", data[i])
	}
	if b := br.block; b == nil || b.Rows() != int(rows) || b.Cols() != int(cols) || &b.RawData()[0] != &data[0] {
		br.block = mat.NewFromData(int(rows), int(cols), data)
	}
	return br.block, nil
}

// DecodeFactorPair parses a PUSH-SKETCH payload — a u32le length prefix
// over Q's data body, then Q's body, then S's — enforcing the pair
// invariants at the protocol boundary: both factors pass BlockReader's
// dimension and finiteness checks, and Q's column count matches S's row
// count so the reconstruction Q·S is well-formed.
func DecodeFactorPair(body []byte) (q, s *mat.Dense, err error) {
	if len(body) < 4 {
		return nil, nil, fmt.Errorf("launch: factor-pair payload of %d bytes is too short", len(body))
	}
	qlen := int(binary.LittleEndian.Uint32(body))
	if qlen > len(body)-4 {
		return nil, nil, fmt.Errorf("launch: factor-pair payload declares a %d-byte Q body but carries %d bytes", qlen, len(body)-4)
	}
	var qr, sr BlockReader
	if q, err = qr.Read(bytes.NewReader(body[4:4+qlen]), qlen); err != nil {
		return nil, nil, fmt.Errorf("launch: factor-pair Q: %w", err)
	}
	if s, err = sr.Read(bytes.NewReader(body[4+qlen:]), len(body)-4-qlen); err != nil {
		return nil, nil, fmt.Errorf("launch: factor-pair S: %w", err)
	}
	if q.Cols() != s.Rows() {
		return nil, nil, fmt.Errorf("launch: factor pair has mismatched inner dimension: Q is %dx%d, S is %dx%d",
			q.Rows(), q.Cols(), s.Rows(), s.Cols())
	}
	return q, s, nil
}

// writeFactorPairFrame writes a PUSH-SKETCH frame for the factor pair
// (q, s) through scratch, in the layout DecodeFactorPair reads.
func writeFactorPairFrame(w io.Writer, scratch []byte, q, s *mat.Dense) error {
	var prefix [4]byte
	binary.LittleEndian.PutUint32(prefix[:], uint32(tcptransport.MessageBodyLen(len(q.RawData()))))
	return writeBlockFrame(w, scratch, SessPushSketch, prefix[:], q, s)
}

// EncodeFloats renders a vector as a data body (the FLOATS payload).
func EncodeFloats(v []float64) []byte {
	return tcptransport.AppendMessageBody(nil, mpi.Message{Rows: -1, Data: v})
}

// DecodeFloats parses a FLOATS payload. Unlike BlockReader it allows
// non-finite values: a spectrum readback must report whatever the engine
// holds, faithfully.
func DecodeFloats(body []byte) ([]float64, error) {
	m, err := tcptransport.DecodeMessageBody(body)
	if err != nil {
		return nil, err
	}
	if m.Rows != -1 {
		return nil, fmt.Errorf("launch: FLOATS payload carries a %dx%d matrix, want a vector", m.Rows, m.Cols)
	}
	return m.Data, nil
}

// EncodeStatus / DecodeStatus render the OK-reply JSON.
func EncodeStatus(st SessionStatus) ([]byte, error) { return json.Marshal(st) }

func DecodeStatus(body []byte) (SessionStatus, error) {
	var st SessionStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return SessionStatus{}, fmt.Errorf("launch: malformed session status: %w", err)
	}
	return st, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

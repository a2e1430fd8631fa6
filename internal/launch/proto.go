package launch

// The session protocol: the framed stdin/stdout command stream between a
// launcher and a persistent parsvd-worker fleet (worker `-session` mode).
//
// Where the original one-shot protocol was line-oriented ("replay a
// workload, print one result line"), a session keeps every worker process
// alive and feeds it real data over the wire. Frames share the shape of
// the tcptransport wire format:
//
//	frame := length:u32le  verb:u8  body
//
// with length counting the verb byte plus the body. Launcher→worker verbs
// (on worker stdin):
//
//	INIT      body = JSON EngineSpec (engine options for every rank)
//	PUSH      body = data body (this rank's row block of one snapshot batch,
//	          encoded with tcptransport.AppendMessageBody — the same
//	          bit-exact float64 framing the rank mesh itself uses)
//	PUSH-SKETCH body = factor-pair body (EncodeFactorPair): this rank's row
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
//	           other ranks); session-mode replacement of the
//	           "PARSVD-RENDEZVOUS <addr>" stdout line
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

// ReadSessionFrame reads one framed message. The declared length is
// validated against maxSessionFrame before any allocation, and the body is
// read in bounded chunks, so a truncated or hostile stream errors out
// after at most frameChunk bytes of allocation instead of panicking or
// committing gigabytes up front.
func ReadSessionFrame(r io.Reader) (verb byte, body []byte, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 1 || n > maxSessionFrame {
		return 0, nil, fmt.Errorf("launch: invalid session frame length %d", n)
	}
	var vb [1]byte
	if _, err = io.ReadFull(r, vb[:]); err != nil {
		return 0, nil, fmt.Errorf("launch: short session frame: %w", err)
	}
	remaining := int(n) - 1
	body = make([]byte, 0, minInt(remaining, frameChunk))
	for remaining > 0 {
		chunk := minInt(remaining, frameChunk)
		off := len(body)
		// Extend in place: the bytes are read straight into the body, not
		// into a zero-filled temporary appended to it.
		body = slices.Grow(body, chunk)[:off+chunk]
		if _, err = io.ReadFull(r, body[off:]); err != nil {
			return 0, nil, fmt.Errorf("launch: short session frame: %w", err)
		}
		remaining -= chunk
	}
	return vb[0], body, nil
}

// EncodeBlock renders a matrix block as a data body (the PUSH payload),
// bit-for-bit via the tcptransport float64 framing.
func EncodeBlock(m *mat.Dense) []byte {
	return appendBlock(nil, m)
}

// appendBlock appends m's data body to buf.
func appendBlock(buf []byte, m *mat.Dense) []byte {
	r, c := m.Dims()
	return tcptransport.AppendMessageBody(buf, mpi.Message{Rows: r, Cols: c, Data: m.RawData()})
}

// DecodeBlock parses a PUSH payload back into a matrix, enforcing the
// invariants a snapshot block must satisfy before it may enter a
// collective update: positive dims, a payload length matching them, and
// finite values only. NaN or Inf snapshot data is rejected here — at the
// protocol boundary — because a non-finite batch would otherwise poison
// the decomposition silently (or desynchronize ranks that validate
// differently).
func DecodeBlock(body []byte) (*mat.Dense, error) {
	m, err := tcptransport.DecodeMessageBody(body)
	if err != nil {
		return nil, err
	}
	if m.Rows < 1 || m.Cols < 1 {
		return nil, fmt.Errorf("launch: snapshot block with non-positive dims %dx%d", m.Rows, m.Cols)
	}
	// Overflow-safe dims check: rows·cols wraps int64 for hostile dims
	// (e.g. rows = 2^61+1, cols = 8 multiplies to 8), so divide the
	// payload length instead of multiplying the declared dims.
	if len(m.Data)%m.Cols != 0 || m.Rows != len(m.Data)/m.Cols {
		return nil, fmt.Errorf("launch: snapshot block carries %d values for a %dx%d matrix",
			len(m.Data), m.Rows, m.Cols)
	}
	if i := mat.FirstNonFinite(m.Data); i >= 0 {
		return nil, fmt.Errorf("launch: snapshot block contains a non-finite value (%g)", m.Data[i])
	}
	return mat.NewFromData(m.Rows, m.Cols, m.Data), nil
}

// EncodeFactorPair renders a sketched factor pair (Q row block + full S)
// as the PUSH-SKETCH payload: a u32le length prefix over Q's data body,
// then Q's body, then S's body — both in the same bit-exact float64
// framing as PUSH, so a replayed pair reconstructs identically.
func EncodeFactorPair(q, s *mat.Dense) []byte {
	qLen := tcptransport.MessageBodyLen(len(q.RawData()))
	out := make([]byte, 4, 4+qLen+tcptransport.MessageBodyLen(len(s.RawData())))
	binary.LittleEndian.PutUint32(out, uint32(qLen))
	out = appendBlock(out, q)
	return appendBlock(out, s)
}

// DecodeFactorPair parses a PUSH-SKETCH payload, enforcing the pair
// invariants at the protocol boundary: both factors pass DecodeBlock's
// dimension and finiteness checks, and Q's column count matches S's row
// count so the reconstruction Q·S is well-formed.
func DecodeFactorPair(body []byte) (q, s *mat.Dense, err error) {
	if len(body) < 4 {
		return nil, nil, fmt.Errorf("launch: factor-pair payload of %d bytes is too short", len(body))
	}
	qlen := binary.LittleEndian.Uint32(body)
	if int(qlen) > len(body)-4 {
		return nil, nil, fmt.Errorf("launch: factor-pair payload declares a %d-byte Q body but carries %d bytes", qlen, len(body)-4)
	}
	if q, err = DecodeBlock(body[4 : 4+qlen]); err != nil {
		return nil, nil, fmt.Errorf("launch: factor-pair Q: %w", err)
	}
	if s, err = DecodeBlock(body[4+qlen:]); err != nil {
		return nil, nil, fmt.Errorf("launch: factor-pair S: %w", err)
	}
	if q.Cols() != s.Rows() {
		return nil, nil, fmt.Errorf("launch: factor pair has mismatched inner dimension: Q is %dx%d, S is %dx%d",
			q.Rows(), q.Cols(), s.Rows(), s.Cols())
	}
	return q, s, nil
}

// EncodeFloats renders a vector as a data body (the FLOATS payload).
func EncodeFloats(v []float64) []byte {
	return tcptransport.AppendMessageBody(nil, mpi.Message{Rows: -1, Data: v})
}

// DecodeFloats parses a FLOATS payload. Unlike DecodeBlock it allows
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

package launch

// The session protocol: the framed stdin/stdout command stream between a
// launcher and a persistent parsvd-worker fleet, the only protocol a
// worker speaks. Every worker process stays alive across operations and is
// fed real data over the wire. Configuration travels on the command line
// and only data over the pipe: a worker takes its rank, world size and
// engine spec as flags (EngineSpec.Args), so a fleet's first exchange is
// the seeding PUSH. Frames are tcptransport frames (its WriteFrame and
// ReadFrame), with a session verb as the kind byte, and every binary body
// is a block or a factor pair in the layouts of internal/mat/codec.go.
// Launcher→worker verbs (on worker stdin):
//
//	PUSH      body = this rank's row block of one snapshot batch, one
//	          snapshot block. The launcher writes it straight from a row
//	          view of the caller's batch (mat.WriteBlock) and the worker
//	          reads it transposed straight into its engine's buffer, each
//	          through a fixed scratch buffer (mat.ReadValuesT, with every
//	          check mat.ReadBlockExact makes): the first batch into the
//	          rows the seeding update factors and writes the modes over
//	          (stream.SVD.FirstBatch), every later one into the rows
//	          the update stacks it in (BatchRows)
//	PUSH-SKETCH body = factor pair: this rank's row block of the
//	          orthonormal sketch basis Q plus the full L×B projection
//	          S = QᵀA, so only L·(M_r+B) floats cross the wire per rank
//	          instead of the raw M_r×B block. The launcher checks
//	          nothing (the parsvd facade rebuilt every Q_r·S to the
//	          worker's bits and checked it); the worker rebuilds its
//	          block, refuses it unless finite and transposes it into the
//	          engine rows a PUSH is decoded into
//	MODES-SHA empty body; collective mode gather: every rank sends its
//	          K×M_i mode rows to rank 0, which hashes them where they
//	          lie — its own rows in its engine, every other rank's in the
//	          mesh payload they arrived in (HashModeRows, never stacking
//	          or copying them) — and puts the SHA-256 fingerprint of the
//	          M×K matrix they make up in its OK reply, beside the
//	          spectrum's bit patterns, so a launcher's result read is one
//	          round trip; every other rank replies OK
//	SAVE      empty body; the same gather, after which rank 0 replies BLOB
//	          holding a facade-compatible (serial) checkpoint of the global
//	          state, encoded from its rows and the received payloads
//	          straight into the frame (core.State.ModeBlocks); the
//	          launcher decodes it off the pipe (core.ReadStateExact), so
//	          neither side holds it as bytes
//	SHUTDOWN  empty body; barrier, transport teardown, OK, clean exit
//
// Worker→launcher verbs (on worker stdout):
//
//	RENDEZVOUS body = rank 0's mesh rendezvous address. Only a rank 0
//	           started by hand (without -inherited-mesh) sends it, before
//	           the TCP fabric is established, so whoever drives it can
//	           point the other ranks there; a launched rank inherits its
//	           mesh and never sends it (every reply to a launcher's
//	           command must be OK, or BLOB from rank 0 to SAVE)
//	OK         body = JSON SessionStatus (rank, traffic counters, ingest
//	           counters, optional modes hash and spectrum), encoded by
//	           AppendStatus
//	BLOB       body = one checkpoint (core.WriteState), exactly the frame
//	           length: a body that runs short or long is refused
//	ERR        body = UTF-8 error text; the worker aborts its transport and
//	           exits nonzero right after writing it, so an ERR always
//	           poisons the whole session. A worker that refuses its engine
//	           spec writes one ERR naming the field and exits before it
//	           adopts or dials its mesh. A rank whose collective returned
//	           because a peer failed writes mpi.ErrAborted's text, which
//	           the launcher reports only when no rank told it more
//
// The exchange is strict lockstep: the launcher writes one command frame
// to every rank (concurrently — collective commands must reach all ranks
// before any reply is awaited), then reads exactly one reply frame per
// rank. Anything else on a worker's stdout is a protocol violation and
// kills the fleet.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"strconv"

	"goparsvd/internal/core"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi/tcptransport"
	"goparsvd/internal/rla"
)

// Session protocol verbs. Command verbs flow launcher→worker, reply verbs
// worker→launcher; the numeric spaces are disjoint so a desynchronized
// stream is detected instead of misread.
const (
	_ byte = 0x10 + iota // 0x10, the retired INIT verb: the engine spec is on argv
	SessPush
	_ // 0x12, the retired SPECTRUM verb: MODES-SHA's OK carries the spectrum
	SessModesSHA
	_ // 0x14, the retired STATS verb: later verbs keep their values
	SessSave
	SessShutdown
	// SessPushSketch was appended after SessShutdown so no pre-existing
	// verb value shifted when the compressed push landed.
	SessPushSketch
)

const (
	SessRendezvous byte = 0x40 + iota
	SessOK
	_ // 0x42, the retired FLOATS reply (SPECTRUM's)
	SessBlob
	SessErr
)

// verbName names a session verb for error messages.
func verbName(v byte) string {
	switch v {
	case SessPush:
		return "PUSH"
	case SessModesSHA:
		return "MODES-SHA"
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
	case SessBlob:
		return "BLOB"
	case SessErr:
		return "ERR"
	default:
		return fmt.Sprintf("verb(0x%02x)", v)
	}
}

// EngineSpec is every rank's engine configuration, which a worker takes
// on its command line (Args, SpecFlags). It mirrors the facade's
// configuration (K, forget factor, randomization) —
// the launcher derives it from the parsvd options, so wire-fed distributed
// runs honor the same knobs as the in-process backends.
type EngineSpec struct {
	K          int
	FF         float64
	LowRank    bool
	Oversample int
	PowerIters int
	Seed       int64
}

// Args returns the six worker flags that carry spec. -ff is formatted so
// that it parses back bit for bit.
func (spec EngineSpec) Args() []string {
	return []string{
		"-k", strconv.Itoa(spec.K),
		"-ff", strconv.FormatFloat(spec.FF, 'g', -1, 64),
		"-lowrank=" + strconv.FormatBool(spec.LowRank),
		"-oversample", strconv.Itoa(spec.Oversample),
		"-power-iters", strconv.Itoa(spec.PowerIters),
		"-seed", strconv.FormatInt(spec.Seed, 10),
	}
}

// SpecFlags defines the six flags Args writes on fs and returns the spec
// they fill in as fs parses; a missing flag leaves its field zero.
func SpecFlags(fs *flag.FlagSet) *EngineSpec {
	spec := new(EngineSpec)
	fs.IntVar(&spec.K, "k", 0, "engine: number of modes K (>= 1)")
	fs.Float64Var(&spec.FF, "ff", 0, "engine: forget factor in (0, 1]")
	fs.BoolVar(&spec.LowRank, "lowrank", false, "engine: randomized (low-rank) streaming update")
	fs.IntVar(&spec.Oversample, "oversample", 0, "engine: randomized SVD oversampling (0 means the default)")
	fs.IntVar(&spec.PowerIters, "power-iters", 0, "engine: randomized SVD power iterations")
	fs.Int64Var(&spec.Seed, "seed", 0, "engine: randomized SVD seed")
	return spec
}

// Options returns the engine options spec describes, as given: a worker
// validates them (core.Options.Validate) before it joins its mesh.
func (spec EngineSpec) Options() core.Options {
	return core.Options{
		K:            spec.K,
		ForgetFactor: spec.FF,
		LowRank:      spec.LowRank,
		RLA: rla.Options{
			Oversample: spec.Oversample,
			PowerIters: spec.PowerIters,
			Seed:       spec.Seed,
		},
	}
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
	// SpectrumBits is, in rank 0's MODES-SHA reply, the singular values
	// as their IEEE-754 bit patterns, so they cross JSON bit for bit,
	// non-finite values included.
	SpectrumBits []uint64 `json:"spectrum_bits,omitempty"`
}

// Spectrum returns the singular values SpectrumBits carries.
func (st SessionStatus) Spectrum() []float64 {
	v := make([]float64, len(st.SpectrumBits))
	for i, b := range st.SpectrumBits {
		v[i] = math.Float64frombits(b)
	}
	return v
}

// blockScratch is the fixed buffer a block crosses a process boundary
// through, in either direction.
const blockScratch = 32 << 10

// pushFrameLen is the length on the wire, length prefix included, of the
// PUSH frame carrying b.
func pushFrameLen(b *mat.Dense) int { return 5 + mat.BlockLen(len(b.RawData())) }

// writeBlockFrame writes a PUSH frame carrying b, encoded straight from
// b's storage through scratch (mat.WriteBlock), so no frame body is ever
// built. b may be a row view of a caller's matrix.
func writeBlockFrame(w io.Writer, scratch []byte, b *mat.Dense) error {
	n := mat.BlockLen(len(b.RawData()))
	if err := tcptransport.CheckFrameBody(n); err != nil {
		return err
	}
	buf, err := mat.WriteBlock(w, tcptransport.AppendFrameHeader(scratch[:0], SessPush, n), b)
	if err == nil {
		_, err = w.Write(buf)
	}
	return err
}

// writeFactorPairFrame writes a PUSH-SKETCH frame carrying the factor
// pair (q, s) through scratch (mat.WriteFactorPair), as writeBlockFrame
// writes a PUSH.
func writeFactorPairFrame(w io.Writer, scratch []byte, q, s *mat.Dense) error {
	n := mat.FactorPairLen(q, s)
	if err := tcptransport.CheckFrameBody(n); err != nil {
		return err
	}
	buf, err := mat.WriteFactorPair(w, tcptransport.AppendFrameHeader(scratch[:0], SessPushSketch, n), q, s)
	if err == nil {
		_, err = w.Write(buf)
	}
	return err
}

// AppendStatus appends the body of an OK reply: the JSON json.Marshal
// writes for st, byte for byte, with sha — hex digits, possibly none — as
// its modes hash in place of st.ModesSHA and the bit patterns of spectrum
// in place of st.SpectrumBits. It uses no reflection and allocates nothing
// once buf holds a reply, so a worker acknowledges every command from one
// reused buffer.
func AppendStatus(buf []byte, st SessionStatus, sha []byte, spectrum []float64) []byte {
	buf = append(buf, `{"rank":`...)
	buf = strconv.AppendInt(buf, int64(st.Rank), 10)
	buf = append(buf, `,"messages":`...)
	buf = strconv.AppendInt(buf, st.Messages, 10)
	buf = append(buf, `,"bytes_sent":`...)
	buf = strconv.AppendInt(buf, st.BytesSent, 10)
	buf = append(buf, `,"bytes_recv":`...)
	buf = strconv.AppendInt(buf, st.BytesRecv, 10)
	buf = append(buf, `,"rows":`...)
	buf = strconv.AppendInt(buf, int64(st.Rows), 10)
	buf = append(buf, `,"snapshots":`...)
	buf = strconv.AppendInt(buf, int64(st.Snapshots), 10)
	buf = append(buf, `,"iterations":`...)
	buf = strconv.AppendInt(buf, int64(st.Iterations), 10)
	if len(sha) > 0 {
		buf = append(buf, `,"modes_sha":"`...)
		buf = append(buf, sha...)
		buf = append(buf, '"')
	}
	if len(spectrum) > 0 {
		buf = append(buf, `,"spectrum_bits":[`...)
		for i, v := range spectrum {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendUint(buf, math.Float64bits(v), 10)
		}
		buf = append(buf, ']')
	}
	return append(buf, '}')
}

// DecodeStatus parses the OK-reply JSON.
func DecodeStatus(body []byte) (SessionStatus, error) {
	var st SessionStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return SessionStatus{}, fmt.Errorf("launch: malformed session status: %w", err)
	}
	return st, nil
}

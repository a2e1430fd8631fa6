package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"goparsvd/internal/mat"
	"goparsvd/internal/rla"
	"goparsvd/internal/stream"
)

// Checkpoint/restart for the streaming engines. Long-running in-situ
// analyses (the paper's target deployment: SVD updates riding along a
// simulation) must survive restarts of the host application, so the
// complete state — options, modes, singular values, counters — serializes
// to an io.Writer and reconstructs from an io.Reader. The format is a
// little-endian binary stream with a magic header and version byte. A
// parallel run checkpoints its gathered global state in the same format,
// so it resumes as a serial engine.

var checkpointMagic = [4]byte{'G', 'P', 'S', 'V'}

// Version 1 is the original layout; version 2 appends the shard
// provenance pair (index, count) to the metadata block. A writer emits
// the oldest version that can represent the state — zero provenance
// still writes byte-identical version-1 checkpoints — and the reader
// accepts both.
const (
	checkpointVersion   = 1
	checkpointVersionV2 = 2
)

// ErrBadCheckpoint is returned when restoring from data that is not a
// goparsvd checkpoint or is structurally damaged.
var ErrBadCheckpoint = errors.New("core: not a valid goparsvd checkpoint")

// ShardID records which shard of a partitioned fit produced a
// checkpoint: shard Index of Count disjoint snapshot subsets. The zero
// value means "unknown / whole stream" and is what every non-sharded
// save writes. Merge validation uses it to refuse re-absorbing the same
// shard twice (disjointness is Index-distinctness at equal Count).
type ShardID struct {
	Index int
	Count int
}

// IsZero reports an absent provenance mark.
func (id ShardID) IsZero() bool { return id == ShardID{} }

// Validate checks the structural invariants (0 <= Index < Count).
func (id ShardID) Validate() error {
	if id.IsZero() {
		return nil
	}
	if id.Count < 1 || id.Index < 0 || id.Index >= id.Count {
		return fmt.Errorf("core: shard %d of %d out of range", id.Index, id.Count)
	}
	return nil
}

// State is the complete serialized form of a streaming decomposition:
// everything a checkpoint carries. The modes are held one of two ways:
// Modes, the M×K matrix (what ReadState fills), or ModeBlocks, the
// mode-major K×M matrix Uᵀ as column blocks side by side (K×M_0 | K×M_1 |
// …), as an engine's ModeRows (one block) or a parallel gather at rank 0
// (one block per rank) leaves them. WriteState reads either in place, so
// a save never builds an M×K copy.
type State struct {
	// Opts are the options the engine runs with (stream.SVD.Options).
	Opts       stream.Options
	Modes      *mat.Dense
	ModeBlocks []*mat.Dense // read when Modes is nil
	Singular   []float64
	Iterations int
	Snapshots  int
	// Shard is the provenance mark of a shard-local fit (zero for a
	// whole-stream model).
	Shard ShardID
}

// WriteState emits the binary layout:
//
//	magic[4] version[1]
//	K, iterations, snapshots            int64
//	forgetFactor                        float64
//	lowRank                             uint8
//	rla: oversample, powerIters, seed   int64
//	r1, method                          int64  (reserved: always 0)
//	shardIndex, shardCount              int64  (version 2 only)
//	rows, cols                          int64
//	singular values                     cols × float64
//	modes, row-major                    rows·cols × float64
//
// A zero Shard writes version 1 (byte-identical to the original format,
// pinned by the golden fixture); a non-zero Shard writes version 2. The
// r1 and method slots once configured the APMOS seeding of a parallel run,
// which a restored model never runs; they are written as 0 and r1 is
// ignored on read. A zero RLA is written as rla.DefaultOptions(), the
// options an engine built with it runs with.
func WriteState(w io.Writer, st State) error {
	var sw StateWriter
	return sw.WriteState(w, st)
}

// StateWriter writes checkpoints as WriteState does, through one scratch
// buffer it keeps across calls, so a process that checkpoints again and
// again (a worker answering SAVE) allocates nothing per checkpoint. The
// zero value is ready to use.
type StateWriter struct {
	buf []byte
}

// WriteState writes st to w in WriteState's layout.
func (sw *StateWriter) WriteState(w io.Writer, st State) error {
	if err := st.Shard.Validate(); err != nil {
		return fmt.Errorf("core: checkpoint write: %w", err)
	}
	rows, cols, err := st.modeDims()
	if err != nil {
		return fmt.Errorf("core: checkpoint write: %w", err)
	}
	if cols != len(st.Singular) {
		return fmt.Errorf("core: checkpoint state inconsistent: %d modes, %d values",
			cols, len(st.Singular))
	}
	version := uint8(checkpointVersion)
	if !st.Shard.IsZero() {
		version = checkpointVersionV2
	}
	lowRank := uint8(0)
	if st.Opts.LowRank {
		lowRank = 1
	}
	if sw.buf == nil {
		sw.buf = make([]byte, 0, scratchLen)
	}
	// The header is encoded into the scratch buffer the values follow
	// through.
	buf := append(sw.buf[:0], checkpointMagic[:]...)
	buf = append(buf, version)
	buf = appendInt64s(buf, int64(st.Opts.K), int64(st.Iterations), int64(st.Snapshots))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.Opts.FF))
	buf = append(buf, lowRank)
	r := st.Opts.RLA
	if r.IsZero() {
		r = rla.DefaultOptions()
	}
	buf = appendInt64s(buf, int64(r.Oversample), int64(r.PowerIters), r.Seed, 0, 0)
	if version == checkpointVersionV2 {
		buf = appendInt64s(buf, int64(st.Shard.Index), int64(st.Shard.Count))
	}
	buf = appendInt64s(buf, int64(rows), int64(cols))
	buf, err = mat.WriteFloats(w, buf, st.Singular)
	if err == nil {
		err = st.writeModes(w, buf)
	}
	if err != nil {
		return fmt.Errorf("core: checkpoint write: %w", err)
	}
	return nil
}

// appendInt64s appends each value as a little-endian int64.
func appendInt64s(buf []byte, vs ...int64) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

// scratchLen is the fixed buffer a checkpoint's values are encoded and
// decoded through, whatever the shape.
const scratchLen = 32 << 10

// EncodedLen is the number of bytes WriteState writes for st, so a
// checkpoint can be framed before it is encoded (the worker's SAVE reply
// streams it straight out).
func (st State) EncodedLen() int {
	rows, cols, _ := st.modeDims()
	return encodedLen(!st.Shard.IsZero(), rows, cols)
}

// encodedLen is the length of a checkpoint of rows×cols modes, version 2
// when shard is set.
func encodedLen(shard bool, rows, cols int) int {
	meta := 7 // rla (3), r1, method, rows, cols
	if shard {
		meta += 2
	}
	return len(checkpointMagic) + 1 + 3*8 + 8 + 1 + 8*meta + 8*(cols+rows*cols)
}

// modeDims is the M×K shape of the modes, whichever layout st holds. It
// errors when ModeBlocks' blocks differ in height.
func (st State) modeDims() (rows, cols int, err error) {
	if st.Modes != nil {
		rows, cols = st.Modes.Dims()
	} else {
		for i, b := range st.ModeBlocks {
			if i == 0 {
				cols = b.Rows()
			} else if b.Rows() != cols {
				return 0, 0, fmt.Errorf("core: state inconsistent: mode block %d holds %d modes, block 0 %d",
					i, b.Rows(), cols)
			}
			rows += b.Cols()
		}
	}
	return rows, cols, nil
}

// writeModes emits the modes row-major as M×K little-endian float64s after
// the pending bytes in buf, through buf's fixed capacity; from mode-major
// blocks it transposes as it encodes, so a save never builds an M×K copy.
func (st State) writeModes(w io.Writer, buf []byte) error {
	var err error
	if st.Modes != nil {
		buf, err = mat.WriteFloats(w, buf, st.Modes.RawData())
	} else {
		for _, b := range st.ModeBlocks {
			if buf, err = writeModeRows(w, buf, b); err != nil {
				break
			}
		}
	}
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// writeModeRows appends the k×m mode-major block rows to buf transposed,
// as m rows of k values, writing buf to w each time its capacity fills,
// and returns the unwritten tail.
func writeModeRows(w io.Writer, buf []byte, rows *mat.Dense) ([]byte, error) {
	k, m := rows.Dims()
	d := rows.RawData()
	for i := 0; i < m; i++ {
		if cap(buf)-len(buf) < 8*k {
			if _, err := w.Write(buf); err != nil {
				return buf, err
			}
			buf = buf[:0]
		}
		for j := 0; j < k; j++ {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d[j*m+i]))
		}
	}
	return buf, nil
}

// ReadState parses either checkpoint version, validating shape and
// option sanity — including that it holds 1 to K modes — but not the
// engine-level restore invariants (those run in stream.Restore).
func ReadState(r io.Reader) (State, error) { return readState(r, -1) }

// ReadStateExact is ReadState of a checkpoint that is exactly the next n
// bytes of r, such as a frame body. The header's shape must account for
// all n bytes — a checkpoint that runs past them or stops short of them is
// refused before any value is read — so what it reserves for the values
// is bounded by n, whatever the header declares. On an error r may be
// left anywhere within the n bytes.
func ReadStateExact(r io.Reader, n int) (State, error) { return readState(r, n) }

// readState is ReadState, and ReadStateExact when n is not negative.
func readState(r io.Reader, n int) (State, error) {
	var st State
	var head [5]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return st, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if [4]byte(head[:4]) != checkpointMagic {
		return st, ErrBadCheckpoint
	}
	version := head[4]
	if version != checkpointVersion && version != checkpointVersionV2 {
		return st, fmt.Errorf("%w: unsupported version %d", ErrBadCheckpoint, version)
	}
	var ints [3]int64
	for i := range ints {
		if err := binary.Read(r, binary.LittleEndian, &ints[i]); err != nil {
			return st, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
	}
	var ff float64
	if err := binary.Read(r, binary.LittleEndian, &ff); err != nil {
		return st, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	var lowRank [1]byte
	if _, err := io.ReadFull(r, lowRank[:]); err != nil {
		return st, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	nmeta := 7
	if version == checkpointVersionV2 {
		nmeta = 9
	}
	meta := make([]int64, nmeta)
	for i := range meta {
		if err := binary.Read(r, binary.LittleEndian, &meta[i]); err != nil {
			return st, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
	}
	if version == checkpointVersionV2 {
		st.Shard = ShardID{Index: int(meta[5]), Count: int(meta[6])}
		if err := st.Shard.Validate(); err != nil {
			return st, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
	}
	// The method slot once selected how APMOS seeded a parallel run: 0 the
	// method of snapshots, 1 a direct SVD of each rank's block. A restored
	// model never seeds again, so either loads; nothing else is a
	// checkpoint. The r1 slot (meta[3]), APMOS's gather truncation, is
	// ignored for the same reason.
	if meta[4] != 0 && meta[4] != 1 {
		return st, fmt.Errorf("%w: unknown APMOS method %d", ErrBadCheckpoint, meta[4])
	}
	rows, cols := meta[nmeta-2], meta[nmeta-1]
	// 128 GiB of float64s: a sanity bound on each dimension and, divided
	// rather than multiplied so it cannot wrap, on their product.
	const maxCheckpointElems = int64(1) << 34
	if rows < 0 || cols < 0 || rows > maxCheckpointElems || cols > maxCheckpointElems ||
		(cols > 0 && rows > maxCheckpointElems/cols) {
		return st, fmt.Errorf("%w: implausible shape %dx%d", ErrBadCheckpoint, rows, cols)
	}
	// The engine never holds more than K modes, nor none at all, so every
	// reader (Load, merges, the server) can rely on 1 <= cols <= K.
	if cols < 1 || cols > ints[0] {
		return st, fmt.Errorf("%w: %d modes, want 1 to K = %d", ErrBadCheckpoint, cols, ints[0])
	}
	if ff <= 0 || ff > 1 || math.IsNaN(ff) {
		return st, fmt.Errorf("%w: forget factor %g out of range", ErrBadCheckpoint, ff)
	}
	if want := encodedLen(version == checkpointVersionV2, int(rows), int(cols)); n >= 0 && want != n {
		return st, fmt.Errorf("%w: %dx%d modes take %d bytes, the body holds %d", ErrBadCheckpoint, rows, cols, want, n)
	}
	// The values are decoded through a fixed scratch buffer and stored as
	// they arrive: a header declaring more than the stream holds fails
	// with an allocation bounded by the bytes actually sent.
	scratch := make([]byte, scratchLen)
	var err error
	if st.Singular, err = mat.ReadFloats(r, nil, int(cols), scratch); err != nil {
		return st, fmt.Errorf("%w: reading singular values: %v", ErrBadCheckpoint, err)
	}
	data, err := mat.ReadFloats(r, nil, int(rows*cols), scratch)
	if err != nil {
		return st, fmt.Errorf("%w: reading modes: %v", ErrBadCheckpoint, err)
	}
	st.Opts = stream.Options{
		K:       int(ints[0]),
		FF:      ff,
		LowRank: lowRank[0] != 0,
		RLA: rla.Options{
			Oversample: int(meta[0]),
			PowerIters: int(meta[1]),
			Seed:       meta[2],
		},
	}
	st.Iterations = int(ints[1])
	st.Snapshots = int(ints[2])
	st.Modes = mat.NewFromData(int(rows), int(cols), data)
	return st, nil
}

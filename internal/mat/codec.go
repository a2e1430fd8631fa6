package mat

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"
)

// Little-endian float64 streams: the value encoding of every binary matrix
// payload in the module (blocks, factor pairs, checkpoints). Neither direction
// builds a byte copy of the whole matrix. On a little-endian machine the
// stream's bytes are the values' memory, so both directions move them in
// place: one read straight into the destination, one write straight from
// the source. Elsewhere they are converted through a caller-owned scratch
// buffer of fixed size.

// nativeLE reports whether this machine stores a float64 as the stream
// encodes it.
var nativeLE = binary.NativeEndian.Uint64([]byte{1, 0, 0, 0, 0, 0, 0, 0}) == 1

// floatBytes is the memory of v as bytes.
func floatBytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))
}

// readAhead bounds, in values (1 MiB), how far ReadFloats reserves
// storage ahead of the values that have arrived.
const readAhead = 1 << 17

// ReadFloats reads n little-endian float64 values from r and appends them
// to dst, decoding through scratch (at least 8 bytes) where the machine is
// not little-endian. Storage is reserved
// at most readAhead values, or as many as have already arrived, ahead of
// the data: a stream that declares more values than it holds fails with
// an allocation bounded by what it sent, not by n, while a stream that
// delivers grows dst geometrically. The values decoded so far are returned
// with any error.
func ReadFloats(r io.Reader, dst []float64, n int, scratch []byte) ([]float64, error) {
	step := len(scratch) / 8
	if step == 0 {
		panic("mat: ReadFloats scratch holds no value")
	}
	start := len(dst)
	for n > 0 {
		k := min(n, step)
		if nativeLE {
			// Reserve as the scratch path does, then fill all the
			// reserved storage in place.
			if cap(dst)-len(dst) < k {
				dst = slices.Grow(dst, min(n, max(k, readAhead, len(dst)-start)))
			}
			off := len(dst)
			k = min(n, cap(dst)-off)
			if _, err := io.ReadFull(r, floatBytes(dst[off:off+k])); err != nil {
				return dst, err
			}
			dst = dst[:off+k]
			n -= k
			continue
		}
		chunk := scratch[:8*k]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return dst, err
		}
		if cap(dst)-len(dst) < k {
			dst = slices.Grow(dst, min(n, max(k, readAhead, len(dst)-start)))
		}
		off := len(dst)
		dst = dst[:off+k]
		vals := dst[off:]
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(chunk[8*i:]))
		}
		n -= k
	}
	return dst, nil
}

// WriteFloats appends data to buf as little-endian float64 values,
// writing buf to w and starting over each time its capacity fills. It
// returns the unwritten tail, which the caller extends or writes itself;
// buf's capacity is the scratch buffer and never grows. On a
// little-endian machine, data that does not fit in buf is written
// straight from its own memory after buf.
func WriteFloats(w io.Writer, buf []byte, data []float64) ([]byte, error) {
	if cap(buf) < 8 {
		panic("mat: WriteFloats buffer holds no value")
	}
	if nativeLE && 8*len(data) > cap(buf)-len(buf) {
		if len(buf) > 0 {
			if _, err := w.Write(buf); err != nil {
				return buf, err
			}
		}
		_, err := w.Write(floatBytes(data))
		return buf[:0], err
	}
	for len(data) > 0 {
		if cap(buf)-len(buf) < 8 {
			if _, err := w.Write(buf); err != nil {
				return buf, err
			}
			buf = buf[:0]
		}
		k := min(len(data), (cap(buf)-len(buf))/8)
		buf = appendFloats(buf, data[:k])
		data = data[k:]
	}
	return buf, nil
}

// appendFloats appends data to buf as little-endian float64 values.
func appendFloats(buf []byte, data []float64) []byte {
	if nativeLE {
		return append(buf, floatBytes(data)...)
	}
	for _, v := range data {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// Blocks: the one layout in which a matrix or vector crosses a process or
// disk boundary — rank-mesh data frames, session PUSH bodies, HTTP matrix
// bodies and WAL batch records:
//
//	block := tag:i64le  rows:i64le  cols:i64le  n:u64le  n × f64le
//
// The n values are row-major IEEE-754 bit patterns, so a matrix round-trips
// bit for bit, NaN payloads and signed zeros included. A snapshot block is
// a block with tag 0, rows and cols at least 1, n = rows·cols and finite
// values; ReadBlock is the one reader that enforces that. The mesh's own
// messages (any tag, Rows = −1 for vectors, non-finite values) are decoded
// structurally by the mesh's frame reader (tcptransport).
//
// A factor pair (a sketched batch Q·S) is
//
//	pair := qlen:u32le  Q:block  S:block
//
// with qlen the length of Q's block: the PUSH-SKETCH session body and,
// after its magic, the WAL sketch record.

// BlockHeaderLen is the length of a block's header.
const BlockHeaderLen = 32

// BlockHeader is a block's header as sent: nothing in it is checked.
type BlockHeader struct {
	Tag, Rows, Cols int64
	N               uint64
}

// ParseBlockHeader decodes the header at the start of b, which holds at
// least BlockHeaderLen bytes.
func ParseBlockHeader(b []byte) BlockHeader {
	return BlockHeader{
		Tag:  int64(binary.LittleEndian.Uint64(b[0:])),
		Rows: int64(binary.LittleEndian.Uint64(b[8:])),
		Cols: int64(binary.LittleEndian.Uint64(b[16:])),
		N:    binary.LittleEndian.Uint64(b[24:]),
	}
}

// BlockLen is the encoded length of a block of n values.
func BlockLen(n int) int { return BlockHeaderLen + 8*n }

// AppendBlock appends a block carrying data under the given tag and dims.
// buf grows at most once.
func AppendBlock(buf []byte, tag, rows, cols int, data []float64) []byte {
	// With room for the whole block, writeBlock never writes to its writer.
	buf, _ = writeBlock(nil, slices.Grow(buf, BlockLen(len(data))), tag, rows, cols, data)
	return buf
}

// WriteBlock appends m's block (tag 0) to buf, writing buf to w each time
// its capacity fills, and returns the unwritten tail as WriteFloats does.
// The values are encoded straight from m's storage, which may be a row
// view of a larger matrix.
func WriteBlock(w io.Writer, buf []byte, m *Dense) ([]byte, error) {
	return writeBlock(w, buf, 0, m.rows, m.cols, m.data)
}

func writeBlock(w io.Writer, buf []byte, tag, rows, cols int, data []float64) ([]byte, error) {
	if cap(buf)-len(buf) < BlockHeaderLen && len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return buf, err
		}
		buf = buf[:0]
	}
	return WriteFloats(w, AppendBlockHeader(buf, tag, rows, cols, len(data)), data)
}

// AppendBlockHeader appends the header of a block of n values under the
// given tag and dims.
func AppendBlockHeader(buf []byte, tag, rows, cols, n int) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(tag)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(rows)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(cols)))
	return binary.LittleEndian.AppendUint64(buf, uint64(n))
}

// WriteFloatsBuffered writes data to bw as little-endian float64 values
// through bw's own buffer and nothing else: on a little-endian machine
// straight from data's memory, elsewhere encoded into bw's free space
// (bufio.Writer.AvailableBuffer) a chunk at a time. A caller that writes a
// header into bw first and then its values this way sends a block without
// building a copy of it.
func WriteFloatsBuffered(bw *bufio.Writer, data []float64) error {
	if nativeLE {
		_, err := bw.Write(floatBytes(data))
		return err
	}
	for len(data) > 0 {
		if bw.Available() < 8 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		buf := bw.AvailableBuffer()
		k := min(len(data), cap(buf)/8)
		if _, err := bw.Write(appendFloats(buf, data[:k])); err != nil {
			return err
		}
		data = data[k:]
	}
	return nil
}

// ErrBlockOverLimit reports a block that declares more values than the
// bytes its stream may still hold.
var ErrBlockOverLimit = errors.New("declared size exceeds the bytes left")

// ReadBlock decodes one snapshot block from r, which holds at most limit
// more bytes, into dst, and returns the block's encoded length. The header
// is checked before any value is read or any storage reserved: tag 0,
// rows and cols at least 1, n = rows·cols, and 8·n within limit. The
// values are then read in bounded chunks (ReadFloats) into dst's own
// storage when it holds them — so a caller that reads every block into
// one Dense allocates nothing once shapes are steady — and refused if any
// is non-finite: NaN or Inf snapshot data would otherwise poison a
// decomposition silently. scratch carries the header and, where the
// machine is not little-endian, the values; it holds at least
// BlockHeaderLen bytes. dst's storage is overwritten.
func ReadBlock(r io.Reader, limit int64, dst *Dense, scratch []byte) (int, error) {
	h, err := readSnapshotHeader(r, limit, scratch)
	if err != nil {
		return 0, err
	}
	if err := readBlockValues(r, int(h.Rows), int(h.Cols), dst, scratch); err != nil {
		return 0, err
	}
	return BlockLen(len(dst.data)), nil
}

// readSnapshotHeader reads a snapshot block's header from r, which holds
// at most limit more bytes, and checks it as ReadBlock does.
func readSnapshotHeader(r io.Reader, limit int64, scratch []byte) (BlockHeader, error) {
	if limit < BlockHeaderLen {
		return BlockHeader{}, fmt.Errorf("mat: snapshot block truncated: %d bytes, the header alone takes %d", max(limit, 0), BlockHeaderLen)
	}
	hdr := scratch[:BlockHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return BlockHeader{}, fmt.Errorf("mat: reading snapshot block header: %w", err)
	}
	h := ParseBlockHeader(hdr)
	// Divide rather than multiply: the counts are the sender's, and
	// rows·cols or 8·n would wrap for hostile values.
	switch {
	case h.Tag != 0:
		return h, fmt.Errorf("mat: snapshot block has tag %d, want 0", h.Tag)
	case h.Rows < 1 || h.Cols < 1:
		return h, fmt.Errorf("mat: snapshot block dims %dx%d: both must be >= 1", h.Rows, h.Cols)
	case h.N%uint64(h.Cols) != 0 || h.N/uint64(h.Cols) != uint64(h.Rows):
		return h, fmt.Errorf("mat: snapshot block declares %d values for a %dx%d matrix", h.N, h.Rows, h.Cols)
	case h.N > uint64(limit-BlockHeaderLen)/8:
		return h, fmt.Errorf("mat: %dx%d snapshot block: %w (%d bytes left)", h.Rows, h.Cols, ErrBlockOverLimit, limit-BlockHeaderLen)
	}
	return h, nil
}

// readBlockValues reads a checked block's rows·cols values into dst as
// ReadBlock does.
func readBlockValues(r io.Reader, rows, cols int, dst *Dense, scratch []byte) error {
	data, err := ReadFloats(r, dst.data[:0], rows*cols, scratch)
	dst.rows, dst.cols, dst.data = 0, 0, data[:0]
	if err != nil {
		return fmt.Errorf("mat: reading %dx%d snapshot block values: %w", rows, cols, err)
	}
	if i := FirstNonFinite(data); i >= 0 {
		return nonFiniteValue(data[i], i)
	}
	dst.rows, dst.cols, dst.data = rows, cols, data
	return nil
}

func nonFiniteValue(v float64, i int) error {
	return fmt.Errorf("mat: snapshot block contains a non-finite value (%g) at index %d", v, i)
}

// ReadBlockExact reads a snapshot block that is exactly the next n bytes
// of r into dst, as ReadBlock does. The length is checked with the
// header, before any value is read.
func ReadBlockExact(r io.Reader, n int, dst *Dense, scratch []byte) error {
	rows, cols, err := ReadBlockHeader(r, n, scratch)
	if err != nil {
		return err
	}
	return readBlockValues(r, rows, cols, dst, scratch)
}

// ReadBlockHeader reads the header of a snapshot block that is exactly the
// next n bytes of r and returns its dims, once it has passed every check
// ReadBlockExact makes before it reads a value: tag 0, rows and cols at
// least 1, rows·cols values declared, and exactly n bytes in all. The
// caller then names where the values go and reads them with ReadValuesT,
// so a block can be decoded into storage sized from its header. scratch
// holds at least BlockHeaderLen bytes.
func ReadBlockHeader(r io.Reader, n int, scratch []byte) (rows, cols int, err error) {
	h, err := readSnapshotHeader(r, int64(n), scratch)
	if err != nil {
		return 0, 0, err
	}
	if used := BlockLen(int(h.N)); used != n {
		return 0, 0, fmt.Errorf("mat: %d bytes after a %dx%d snapshot block", n-used, h.Rows, h.Cols)
	}
	return int(h.Rows), int(h.Cols), nil
}

// ReadValuesT reads the values of a block whose header ReadBlockHeader
// returned straight into dst, which holds the block's transpose: the
// rows×cols block's values are read into scratch a chunk at a time and
// written transposed into the cols×rows matrix dst, refusing a non-finite
// value (reported at its index in the block) as ReadBlock does, so a batch
// goes straight into the rows an update stacks it in. dst may be a view
// into a larger matrix; it is never reallocated. Each chunk is scattered
// column by column, so every destination row receives one contiguous run
// per chunk, as TInto writes them. scratch holds at least 16 bytes.
func ReadValuesT(r io.Reader, dst *Dense, scratch []byte) error {
	rows, cols := dst.cols, dst.rows
	buf := alignedFloats(scratch)
	if len(buf) == 0 {
		panic("mat: ReadValuesT scratch holds no aligned value")
	}
	d := dst.data
	for done := 0; done < rows*cols; {
		// A chunk of at most tBlock block rows stays cache-resident while
		// it is scattered, as TInto's source blocks do.
		vals := buf[:min(rows*cols-done, len(buf), tBlock*cols)]
		k := len(vals)
		raw := floatBytes(vals)
		if _, err := io.ReadFull(r, raw); err != nil {
			return fmt.Errorf("mat: reading %dx%d snapshot block values: %w", rows, cols, err)
		}
		if !nativeLE {
			for p := range vals {
				vals[p] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*p:]))
			}
		}
		if p := FirstNonFinite(vals); p >= 0 {
			return nonFiniteValue(vals[p], done+p)
		}
		// Value p of the chunk is block entry (i, j) with
		// i·cols + j = done + p; a column's values lie cols apart.
		i0, j0 := done/cols, done%cols
		for c := range min(cols, k) {
			i, j := i0, j0+c
			if j >= cols {
				i, j = i+1, j-cols
			}
			out := d[j*rows : (j+1)*rows]
			for p := c; p < k; p, i = p+cols, i+1 {
				out[i] = vals[p]
			}
		}
		done += k
	}
	return nil
}

// alignedFloats views the 8-byte-aligned whole float64 slots of b as
// float64s, so values can be read straight into a byte scratch buffer.
func alignedFloats(b []byte) []float64 {
	off := int(-uintptr(unsafe.Pointer(unsafe.SliceData(b))) & 7)
	if len(b) < off+8 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[off])), (len(b)-off)/8)
}

// DecodeBlock decodes b, which holds exactly one snapshot block, into
// fresh storage.
func DecodeBlock(b []byte) (*Dense, error) {
	var m Dense
	if err := ReadBlockExact(bytes.NewReader(b), len(b), &m, make([]byte, 1<<10)); err != nil {
		return nil, err
	}
	return &m, nil
}

// FactorPairLen is the encoded length of the factor pair (q, s).
func FactorPairLen(q, s *Dense) int { return 4 + BlockLen(len(q.data)) + BlockLen(len(s.data)) }

// AppendFactorPair appends the factor pair (q, s) to buf, which grows at
// most once.
func AppendFactorPair(buf []byte, q, s *Dense) []byte {
	// With room for the whole pair, WriteFactorPair never writes to w.
	buf, _ = WriteFactorPair(nil, slices.Grow(buf, FactorPairLen(q, s)), q, s)
	return buf
}

// WriteFactorPair appends the factor pair (q, s) to buf as WriteBlock
// appends a block.
func WriteFactorPair(w io.Writer, buf []byte, q, s *Dense) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(BlockLen(len(q.data))))
	buf, err := WriteBlock(w, buf, q)
	if err != nil {
		return buf, err
	}
	return WriteBlock(w, buf, s)
}

// ReadFactorPair reads a factor pair that is exactly the next n bytes of r
// into q and s, each as ReadBlock reads a block: into its own storage when
// that holds the values, so a caller that reads every pair into the same
// two matrices allocates nothing once shapes are steady. Both factors are
// snapshot blocks, and Q's column count matches S's row count, so the
// product Q·S is well-formed. scratch is ReadBlock's.
func ReadFactorPair(r io.Reader, n int, q, s *Dense, scratch []byte) error {
	if n < 4 {
		return fmt.Errorf("mat: factor pair of %d bytes is too short", n)
	}
	if _, err := io.ReadFull(r, scratch[:4]); err != nil {
		return fmt.Errorf("mat: reading factor pair: %w", err)
	}
	qlen := uint64(binary.LittleEndian.Uint32(scratch))
	if qlen > uint64(n-4) {
		return fmt.Errorf("mat: factor pair declares a %d-byte Q but carries %d bytes", qlen, n-4)
	}
	if err := ReadBlockExact(r, int(qlen), q, scratch); err != nil {
		return fmt.Errorf("mat: factor pair Q: %w", err)
	}
	if err := ReadBlockExact(r, n-4-int(qlen), s, scratch); err != nil {
		return fmt.Errorf("mat: factor pair S: %w", err)
	}
	if q.cols != s.rows {
		return fmt.Errorf("mat: factor pair has mismatched inner dimension: Q is %dx%d, S is %dx%d",
			q.rows, q.cols, s.rows, s.cols)
	}
	return nil
}

// DecodeFactorPair decodes b, which holds exactly one factor pair, into
// fresh storage, as ReadFactorPair reads one.
func DecodeFactorPair(b []byte) (q, s *Dense, err error) {
	q, s = new(Dense), new(Dense)
	if err := ReadFactorPair(bytes.NewReader(b), len(b), q, s, make([]byte, 1<<10)); err != nil {
		return nil, nil, err
	}
	return q, s, nil
}

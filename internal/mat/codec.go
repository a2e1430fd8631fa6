package mat

import (
	"encoding/binary"
	"io"
	"math"
	"slices"
	"unsafe"
)

// Little-endian float64 streams: the value encoding of every binary matrix
// payload in the module (session frames, checkpoints). Neither direction
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
		for _, v := range data[:k] {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		data = data[k:]
	}
	return buf, nil
}

package mat

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// withNativeLE runs fn with the in-place path switched on or off, and
// skips the on case where the machine is not little-endian.
func withNativeLE(t *testing.T, on bool, fn func()) {
	t.Helper()
	if on && !nativeLE {
		t.Skip("big-endian machine: no in-place path")
	}
	saved := nativeLE
	nativeLE = on
	defer func() { nativeLE = saved }()
	fn()
}

// TestFloatCodecInPlaceMatchesScratch: the in-place path writes the bytes
// of the little-endian encoding and reads them back bit for bit, as the
// scratch path does, for every length and scratch size, NaN payloads,
// signed zeros and infinities included; WriteFloatsBuffered writes the
// same bytes through a bufio.Writer of that size.
func TestFloatCodecInPlaceMatchesScratch(t *testing.T) {
	special := []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8_0000_dead_beef), 5e-324, math.MaxFloat64}
	for _, n := range []int{0, 1, 7, 4099} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i)*0.37 - 11
			if i < len(special) {
				vals[i] = special[i]
			}
		}
		want := make([]byte, 0, 8*n)
		for _, v := range vals {
			want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v))
		}
		for _, scratch := range []int{8, 24, 32 << 10} {
			for _, inPlace := range []bool{false, true} {
				withNativeLE(t, inPlace, func() {
					var w bytes.Buffer
					tail, err := WriteFloats(&w, make([]byte, 0, scratch), vals)
					if err == nil {
						_, err = w.Write(tail)
					}
					if err != nil || !bytes.Equal(w.Bytes(), want) {
						t.Fatalf("n=%d scratch=%d in-place=%v: wrote %d bytes (err %v), want the %d-byte encoding", n, scratch, inPlace, w.Len(), err, len(want))
					}
					// Through a bufio.Writer's own buffer, after a byte
					// that leaves it unaligned, at the same buffer size.
					w.Reset()
					bw := bufio.NewWriterSize(&w, max(scratch, 16))
					bw.WriteByte(0xAB)
					err = WriteFloatsBuffered(bw, vals)
					if err == nil {
						err = bw.Flush()
					}
					if err != nil || w.Len() != 1+len(want) || !bytes.Equal(w.Bytes()[1:], want) {
						t.Fatalf("n=%d buffer=%d in-place=%v: WriteFloatsBuffered wrote %d bytes (err %v), want 1 + the %d-byte encoding", n, scratch, inPlace, w.Len(), err, len(want))
					}
					got, err := ReadFloats(bytes.NewReader(want), []float64{42}, n, make([]byte, scratch))
					if err != nil || len(got) != n+1 || got[0] != 42 {
						t.Fatalf("n=%d scratch=%d in-place=%v: read %d values (err %v), want 42 then %d", n, scratch, inPlace, len(got), err, n)
					}
					for i, v := range got[1:] {
						if math.Float64bits(v) != math.Float64bits(vals[i]) {
							t.Fatalf("n=%d scratch=%d in-place=%v: value %d = %x, want %x", n, scratch, inPlace, i, math.Float64bits(v), math.Float64bits(vals[i]))
						}
					}
				})
			}
		}
	}
}

// TestReadFloatsShortStreamBoundsStorage: a stream that declares 2³⁰
// values and sends two fails on either path, having reserved no more than
// readAhead values.
func TestReadFloatsShortStreamBoundsStorage(t *testing.T) {
	for _, inPlace := range []bool{false, true} {
		withNativeLE(t, inPlace, func() {
			got, err := ReadFloats(bytes.NewReader(make([]byte, 16)), nil, 1<<30, make([]byte, 64))
			if err != io.ErrUnexpectedEOF {
				t.Errorf("in-place=%v: err = %v, want io.ErrUnexpectedEOF", inPlace, err)
			}
			if cap(got) > readAhead {
				t.Errorf("in-place=%v: reserved %d values for a 2-value stream, bound %d", inPlace, cap(got), readAhead)
			}
		})
	}
}

// TestReadValuesTMatchesTInto: the transposing reader writes a block's
// transpose bit for bit as TInto lays it out, on either float path, for
// scratch buffers that split rows anywhere, misaligned ones included, and
// refuses a non-finite value at its row-major index in the block.
func TestReadValuesTMatchesTInto(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {130, 16}, {7, 40}} {
		rows, cols := dims[0], dims[1]
		src := New(rows, cols)
		for i := range src.data {
			src.data[i] = float64(i)*0.75 - 3
		}
		src.data[0] = math.Copysign(0, -1)
		want := src.T()
		body := AppendBlock(nil, 0, rows, cols, src.data)
		for _, size := range []int{32, 41, 200, 32 << 10} {
			for _, inPlace := range []bool{false, true} {
				withNativeLE(t, inPlace, func() {
					scratch := make([]byte, size+1)[1:] // misaligned
					got := New(cols, rows)
					r := bytes.NewReader(body)
					if gr, gc, err := ReadBlockHeader(r, len(body), scratch); err != nil || gr != rows || gc != cols {
						t.Fatalf("%dx%d: header %dx%d, %v", rows, cols, gr, gc, err)
					}
					if err := ReadValuesT(r, got, scratch); err != nil {
						t.Fatalf("%dx%d scratch %d in-place=%v: %v", rows, cols, size, inPlace, err)
					}
					for i, v := range got.data {
						if math.Float64bits(v) != math.Float64bits(want.data[i]) {
							t.Fatalf("%dx%d scratch %d in-place=%v: value %d = %g, want %g", rows, cols, size, inPlace, i, v, want.data[i])
						}
					}
					bad := src.Clone()
					at := len(bad.data) - 1 - len(bad.data)/3
					bad.data[at] = math.Inf(-1)
					bad.data[len(bad.data)-1] = math.NaN()
					badBody := AppendBlock(nil, 0, rows, cols, bad.data)[BlockHeaderLen:]
					err := ReadValuesT(bytes.NewReader(badBody), got, scratch)
					if want := fmt.Sprintf("at index %d", min(at, len(bad.data)-1)); err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("%dx%d scratch %d in-place=%v: non-finite block gave %v, want an error %s", rows, cols, size, inPlace, err, want)
					}
				})
			}
		}
	}
}

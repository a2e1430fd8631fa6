package tcptransport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
)

// Wire format. Every frame — on the rank mesh and on a worker's session
// stdin and stdout (internal/launch) — is length-prefixed:
//
//	frame := length:u32le  kind:u8  body
//
// where length counts the kind byte plus the body, at most MaxFrame.
// WriteFrame, ReadFrameHeader and ReadFrameBody are the one codec for it.
// Mesh kinds:
//
//	hello   := magic:[4]byte  rank:i64le  addrLen:u16le  addr:[addrLen]byte
//	table   := count:u64le  count × (addrLen:u16le  addr:[addrLen]byte)
//	ident   := magic:[4]byte  rank:i64le
//	data    := one block (internal/mat/codec.go) carrying an mpi.Message
//	barrier-enter, barrier-release, ping, abort, bye := (empty body)
//
// Data frames carry mpi.Message verbatim: float64 payloads are transmitted
// as their IEEE-754 bit patterns, so a matrix round-trips bit-for-bit —
// including NaNs, infinities and signed zeros — and a multi-process run
// reproduces the in-process result exactly.
const (
	kindHello byte = iota + 1
	kindTable
	kindIdent
	kindData
	kindBarrierEnter
	kindBarrierRelease
	kindPing
	kindAbort
	kindBye
)

// magic opens hello and ident frames so a stray connection (port scanner,
// misconfigured peer) is rejected during the handshake instead of being
// misread as a rank.
var magic = [4]byte{'g', 'P', 'S', 'V'}

// MaxFrame bounds a frame's length field (1 GiB of payload plus
// headers); anything larger is treated as a corrupted stream.
const MaxFrame = 1<<30 + 64

// frameChunk is the read granularity for frame bodies: a frame whose
// declared length exceeds the bytes actually sent fails after at most one
// chunk of allocation, so a hostile length prefix cannot force a huge
// allocation against a truncated stream.
const frameChunk = 1 << 20

// CheckFrameBody reports whether a body of n bytes fits in one frame.
func CheckFrameBody(n int) error {
	if n+1 > MaxFrame {
		return fmt.Errorf("tcptransport: frame body of %d bytes exceeds the %d-byte bound", n, MaxFrame-1)
	}
	return nil
}

// AppendFrameHeader appends the u32 length prefix and kind byte for a body
// of the given length, which CheckFrameBody accepts.
func AppendFrameHeader(buf []byte, kind byte, bodyLen int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(bodyLen+1))
	return append(buf, kind)
}

// WriteFrame writes one frame carrying body, which may be empty.
func WriteFrame(w io.Writer, kind byte, body []byte) error {
	return NewFrameWriter(w).WriteFrame(kind, body)
}

// FrameWriter writes frames to one stream through a header buffer and a
// byte counter it keeps, so a process that writes frame after frame (a
// worker answering its launcher) allocates nothing per frame.
type FrameWriter struct {
	w   io.Writer
	hdr []byte
	n   int // body bytes written through Write since the last header
}

// NewFrameWriter returns a FrameWriter writing to w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: w, hdr: make([]byte, 0, 5)}
}

// WriteFrame writes one frame carrying body, which may be empty.
func (f *FrameWriter) WriteFrame(kind byte, body []byte) error {
	return f.WriteSizedFrame(kind, len(body), func(w io.Writer) error {
		if len(body) == 0 {
			return nil
		}
		_, err := w.Write(body)
		return err
	})
}

// WriteSizedFrame writes one frame whose n-byte body is produced by body
// writing to f, which passes it to the stream and counts it, so a large
// body (a SAVE checkpoint) is never assembled in memory. It errors if body
// writes other than n bytes; the stream is then corrupt and must be
// abandoned.
func (f *FrameWriter) WriteSizedFrame(kind byte, n int, body func(io.Writer) error) error {
	if err := CheckFrameBody(n); err != nil {
		return err
	}
	f.hdr = AppendFrameHeader(f.hdr[:0], kind, n)
	if _, err := f.w.Write(f.hdr); err != nil {
		return err
	}
	f.n = 0
	if err := body(f); err != nil {
		return err
	}
	if f.n != n {
		return fmt.Errorf("tcptransport: frame kind 0x%02x declared %d body bytes, wrote %d", kind, n, f.n)
	}
	return nil
}

// Write passes p to the stream, counting it towards the current frame's
// body.
func (f *FrameWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	f.n += n
	return n, err
}

// ReadFrame reads one frame: ReadFrameHeader, then ReadFrameBody.
func ReadFrame(r io.Reader) (kind byte, body []byte, err error) {
	kind, n, err := ReadFrameHeader(r)
	if err != nil {
		return 0, nil, err
	}
	body, err = ReadFrameBody(r, n)
	return kind, body, err
}

// ReadFrameHeader reads a frame's length prefix and kind and returns the
// length of the body still to be read. The declared length is checked
// against MaxFrame before anything is allocated. A stream that ends
// cleanly before the frame returns io.EOF. A reader that reads bytes one
// at a time (a bufio.Reader) is read that way, which allocates nothing.
func ReadFrameHeader(r io.Reader) (kind byte, n int, err error) {
	br, ok := r.(io.ByteReader)
	if !ok {
		br = &byteReader{r: r}
	}
	var hdr [5]byte
	for i := range hdr {
		if hdr[i], err = br.ReadByte(); err != nil {
			if err == io.EOF && i > 0 {
				err = io.ErrUnexpectedEOF
			}
			if i == 4 {
				err = fmt.Errorf("tcptransport: short frame: %w", err)
			}
			return 0, 0, err
		}
		if i == 3 {
			if size := binary.LittleEndian.Uint32(hdr[:4]); size < 1 || size > MaxFrame {
				return 0, 0, fmt.Errorf("tcptransport: invalid frame length %d", size)
			}
		}
	}
	return hdr[4], int(binary.LittleEndian.Uint32(hdr[:4])) - 1, nil
}

// byteReader reads one byte at a time from a reader that cannot.
type byteReader struct {
	r   io.Reader
	buf [1]byte
}

func (b *byteReader) ReadByte() (byte, error) {
	_, err := io.ReadFull(b.r, b.buf[:])
	return b.buf[0], err
}

// ReadFrameBody reads an n-byte frame body in chunks of at most
// frameChunk, so a truncated stream errors out after at most frameChunk
// bytes of allocation beyond what it carried instead of committing the
// declared length up front.
func ReadFrameBody(r io.Reader, n int) ([]byte, error) {
	body := make([]byte, 0, min(n, frameChunk))
	for len(body) < n {
		off, chunk := len(body), min(n-len(body), frameChunk)
		// Extend in place: the bytes are read straight into the body, not
		// into a zero-filled temporary appended to it.
		body = slices.Grow(body, chunk)[:off+chunk]
		if _, err := io.ReadFull(r, body[off:]); err != nil {
			return nil, fmt.Errorf("tcptransport: short frame: %w", err)
		}
	}
	return body, nil
}

// writeData writes a complete data frame carrying m through bw's own
// buffer: the frame and block headers are encoded into its free space and
// the values straight from m.Data (mat.WriteFloatsBuffered), so a send
// builds no copy of the frame.
func writeData(bw *bufio.Writer, m mpi.Message) error {
	hdr := AppendFrameHeader(bw.AvailableBuffer(), kindData, MessageBodyLen(len(m.Data)))
	if _, err := bw.Write(mat.AppendBlockHeader(hdr, m.Tag, m.Rows, m.Cols, len(m.Data))); err != nil {
		return err
	}
	return mat.WriteFloatsBuffered(bw, m.Data)
}

// AppendMessageBody appends the body of a data frame: m as one block
// (mat.AppendBlock) under its own tag.
func AppendMessageBody(buf []byte, m mpi.Message) []byte {
	return mat.AppendBlock(buf, m.Tag, m.Rows, m.Cols, m.Data)
}

// MessageBodyLen is the length of a data-frame body carrying n values.
func MessageBodyLen(n int) int { return mat.BlockLen(n) }

// readMessageBody reads a data-frame body produced by AppendMessageBody,
// the next n bytes of r, straight into the message's values, which take
// recycled storage from pool when it holds one that fits. It checks
// structure only — any tag, any dims and non-finite values pass, as the
// mesh's own messages need; snapshot data is read by mat.ReadBlock
// instead. The declared float count is checked against n before any value
// is read, and the values arrive as mat.ReadFloats reads them, so a
// corrupt or hostile length can neither over-allocate nor panic. scratch
// holds at least mat.BlockHeaderLen bytes.
func readMessageBody(r io.Reader, n int, scratch []byte, pool *mpi.BufferPool) (mpi.Message, error) {
	if n < mat.BlockHeaderLen {
		return mpi.Message{}, fmt.Errorf("tcptransport: data frame truncated (%d bytes)", n)
	}
	hdr := scratch[:mat.BlockHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return mpi.Message{}, fmt.Errorf("tcptransport: short frame: %w", err)
	}
	m, count, err := parseMessageHeader(hdr, n)
	if err != nil || count == 0 {
		return m, err
	}
	// A pooled buffer is only ever one that already holds count values,
	// so the bound on what a truncated stream can make the reader reserve
	// stays mat.ReadFloats's.
	if m.Data, err = mat.ReadFloats(r, pool.Get(count), count, scratch); err != nil {
		return mpi.Message{}, fmt.Errorf("tcptransport: short frame: %w", err)
	}
	return m, nil
}

// parseMessageHeader checks a data-frame body of n bytes whose block
// header is hdr and returns the message it describes, without values,
// and its value count.
func parseMessageHeader(hdr []byte, n int) (mpi.Message, int, error) {
	h := mat.ParseBlockHeader(hdr)
	// Overflow-safe count check: divide the payload instead of
	// multiplying the (attacker-controlled) count — 8·n wraps uint64 for
	// n ≥ 2^61 and could otherwise alias a small payload length.
	payload := n - mat.BlockHeaderLen
	if payload%8 != 0 || h.N != uint64(payload/8) {
		return mpi.Message{}, 0, fmt.Errorf("tcptransport: data frame declares %d floats, carries %d bytes",
			h.N, payload)
	}
	return mpi.Message{Tag: int(h.Tag), Rows: int(h.Rows), Cols: int(h.Cols)}, int(h.N), nil
}

// readMeshFrame reads one mesh frame. A data frame's body is decoded
// straight from r into m's values (readMessageBody, drawing on pool); any
// other kind's body is read and dropped.
func readMeshFrame(r io.Reader, scratch []byte, pool *mpi.BufferPool) (kind byte, m mpi.Message, err error) {
	kind, n, err := ReadFrameHeader(r)
	if err != nil {
		return 0, m, err
	}
	if kind == kindData {
		m, err = readMessageBody(r, n, scratch, pool)
	} else {
		_, err = ReadFrameBody(r, n)
	}
	return kind, m, err
}

// appendHello appends a complete hello frame (rank plus the address the
// peer's mesh listener advertises; empty when the rank accepts no inbound
// mesh connections).
func appendHello(buf []byte, rank int, addr string) []byte {
	buf = AppendFrameHeader(buf, kindHello, 4+8+2+len(addr))
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(rank)))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(addr)))
	return append(buf, addr...)
}

func decodeHello(body []byte) (rank int, addr string, err error) {
	if len(body) < 4+8+2 || [4]byte(body[:4]) != magic {
		return 0, "", fmt.Errorf("tcptransport: bad hello frame")
	}
	rank = int(int64(binary.LittleEndian.Uint64(body[4:])))
	n := int(binary.LittleEndian.Uint16(body[12:]))
	if len(body) != 14+n {
		return 0, "", fmt.Errorf("tcptransport: hello frame length mismatch")
	}
	return rank, string(body[14:]), nil
}

// appendIdent appends a complete ident frame (a worker introducing itself
// on a direct mesh connection).
func appendIdent(buf []byte, rank int) []byte {
	buf = AppendFrameHeader(buf, kindIdent, 4+8)
	buf = append(buf, magic[:]...)
	return binary.LittleEndian.AppendUint64(buf, uint64(int64(rank)))
}

func decodeIdent(body []byte) (rank int, err error) {
	if len(body) != 4+8 || [4]byte(body[:4]) != magic {
		return 0, fmt.Errorf("tcptransport: bad ident frame")
	}
	return int(int64(binary.LittleEndian.Uint64(body[4:]))), nil
}

// appendTable appends a complete table frame: the rendezvous root's address
// book, indexed by rank (entry 0 is unused and empty).
func appendTable(buf []byte, addrs []string) []byte {
	bodyLen := 8
	for _, a := range addrs {
		bodyLen += 2 + len(a)
	}
	buf = AppendFrameHeader(buf, kindTable, bodyLen)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(addrs)))
	for _, a := range addrs {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(a)))
		buf = append(buf, a...)
	}
	return buf
}

func decodeTable(body []byte) ([]string, error) {
	if len(body) < 8 {
		return nil, fmt.Errorf("tcptransport: table frame truncated")
	}
	count := binary.LittleEndian.Uint64(body)
	if count > 1<<20 {
		return nil, fmt.Errorf("tcptransport: absurd table size %d", count)
	}
	addrs := make([]string, count)
	off := 8
	for i := range addrs {
		if len(body) < off+2 {
			return nil, fmt.Errorf("tcptransport: table frame truncated")
		}
		n := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if len(body) < off+n {
			return nil, fmt.Errorf("tcptransport: table frame truncated")
		}
		addrs[i] = string(body[off : off+n])
		off += n
	}
	if off != len(body) {
		return nil, fmt.Errorf("tcptransport: table frame has %d trailing bytes", len(body)-off)
	}
	return addrs, nil
}

// appendControl appends a bodyless frame of the given kind.
func appendControl(buf []byte, kind byte) []byte {
	return AppendFrameHeader(buf, kind, 0)
}

package tcptransport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"goparsvd/internal/mpi"
)

// Wire format. Every frame is length-prefixed:
//
//	frame := length:u32le  kind:u8  body
//
// where length counts the kind byte plus the body. Kinds:
//
//	hello   := magic:[4]byte  rank:i64le  addrLen:u16le  addr:[addrLen]byte
//	table   := count:u64le  count × (addrLen:u16le  addr:[addrLen]byte)
//	ident   := magic:[4]byte  rank:i64le
//	data    := tag:i64le  rows:i64le  cols:i64le  n:u64le  n × f64le
//	barrier-enter, barrier-release, ping, abort, bye := (empty body)
//
// Data frames carry mpi.Message verbatim: float64 payloads are transmitted
// as their IEEE-754 bit patterns (little-endian), so a matrix round-trips
// bit-for-bit — including NaNs, infinities and signed zeros — and a
// multi-process run reproduces the in-process result exactly.
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

// maxFrame bounds a single frame (1 GiB of payload plus headers); anything
// larger is treated as a corrupted stream.
const maxFrame = 1<<30 + 64

// dataHeaderLen is tag + rows + cols + n.
const dataHeaderLen = 8 + 8 + 8 + 8

// appendFrameHeader appends the u32 length prefix and kind byte for a body
// of the given length.
func appendFrameHeader(buf []byte, kind byte, bodyLen int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(bodyLen+1))
	return append(buf, kind)
}

// appendData appends a complete data frame carrying m.
func appendData(buf []byte, m mpi.Message) []byte {
	buf = appendFrameHeader(buf, kindData, MessageBodyLen(len(m.Data)))
	return AppendMessageBody(buf, m)
}

// AppendMessageBody appends the body of a data frame — tag, dims, count,
// then the float64 payload as IEEE-754 little-endian bit patterns. It is
// exported so other launcher↔worker protocols (the internal/launch session
// protocol carrying snapshot blocks over worker stdin) share the exact
// framing that makes matrices round-trip bit-for-bit, including NaNs,
// infinities and signed zeros.
//
// The body is sized once: buf grows at most one time, and the header and
// every value are written in place.
func AppendMessageBody(buf []byte, m mpi.Message) []byte {
	off := len(buf)
	buf = slices.Grow(buf, MessageBodyLen(len(m.Data)))[:off+MessageBodyLen(len(m.Data))]
	b := buf[off:]
	binary.LittleEndian.PutUint64(b[0:], uint64(int64(m.Tag)))
	binary.LittleEndian.PutUint64(b[8:], uint64(int64(m.Rows)))
	binary.LittleEndian.PutUint64(b[16:], uint64(int64(m.Cols)))
	binary.LittleEndian.PutUint64(b[24:], uint64(len(m.Data)))
	b = b[dataHeaderLen:]
	for i, v := range m.Data {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return buf
}

// MessageBodyLen is the length of a data-frame body carrying n values.
func MessageBodyLen(n int) int { return dataHeaderLen + 8*n }

// decodeData parses the body of a data frame.
func decodeData(body []byte) (mpi.Message, error) { return DecodeMessageBody(body) }

// DecodeMessageBody parses a data-frame body produced by
// AppendMessageBody. The declared float count is validated against the
// bytes actually present before any allocation, so a corrupt or hostile
// length can neither over-allocate nor panic.
func DecodeMessageBody(body []byte) (mpi.Message, error) {
	if len(body) < dataHeaderLen {
		return mpi.Message{}, fmt.Errorf("tcptransport: data frame truncated (%d bytes)", len(body))
	}
	m := mpi.Message{
		Tag:  int(int64(binary.LittleEndian.Uint64(body[0:]))),
		Rows: int(int64(binary.LittleEndian.Uint64(body[8:]))),
		Cols: int(int64(binary.LittleEndian.Uint64(body[16:]))),
	}
	// Overflow-safe count check: divide the payload instead of
	// multiplying the (attacker-controlled) count — 8·n wraps uint64 for
	// n ≥ 2^61 and could otherwise alias a small payload length, driving
	// make() below into a huge allocation or a panic.
	n := binary.LittleEndian.Uint64(body[24:])
	payload := len(body) - dataHeaderLen
	if payload%8 != 0 || n != uint64(payload/8) {
		return mpi.Message{}, fmt.Errorf("tcptransport: data frame declares %d floats, carries %d bytes",
			n, payload)
	}
	if n > 0 {
		m.Data = make([]float64, n)
		for i := range m.Data {
			m.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[dataHeaderLen+8*i:]))
		}
	}
	return m, nil
}

// appendHello appends a complete hello frame (rank plus the address the
// peer's mesh listener advertises; empty when the rank accepts no inbound
// mesh connections).
func appendHello(buf []byte, rank int, addr string) []byte {
	buf = appendFrameHeader(buf, kindHello, 4+8+2+len(addr))
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
	buf = appendFrameHeader(buf, kindIdent, 4+8)
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
	buf = appendFrameHeader(buf, kindTable, bodyLen)
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
	return appendFrameHeader(buf, kind, 0)
}

// readFrame reads one length-prefixed frame from r.
func readFrame(r io.Reader, hdr *[4]byte) (kind byte, body []byte, err error) {
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 1 || n > maxFrame {
		return 0, nil, fmt.Errorf("tcptransport: invalid frame length %d", n)
	}
	buf := make([]byte, n)
	if _, err = io.ReadFull(r, buf); err != nil {
		return 0, nil, fmt.Errorf("tcptransport: short frame: %w", err)
	}
	return buf[0], buf[1:], nil
}

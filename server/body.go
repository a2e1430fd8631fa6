package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	parsvd "goparsvd"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/mpi/tcptransport"
)

// Binary matrix bodies. Every endpoint that takes or returns a matrix
// speaks JSON (MatrixJSON) and one binary form:
//
//	matrix := tag:i64le (0)  rows:i64le  cols:i64le  n:u64le  n × f64le
//
// the tcptransport data-frame body, byte for byte the WAL batch record:
// the n = rows·cols values are row-major IEEE-754 bit patterns, so a
// matrix crosses HTTP bit-for-bit. A request sends it under
// Content-Type: MatrixContentType (/push-sketch sends Q's body, then
// S's); a response carries it when the request's Accept names
// MatrixContentType, with the View version in the VersionHeader. Any
// other content type is JSON.
const (
	// MatrixContentType is the media type of binary matrix bodies.
	MatrixContentType = "application/octet-stream"
	// VersionHeader carries the View version of a binary matrix response
	// (and of a /checkpoint download).
	VersionHeader = "X-Parsvd-Version"

	// matrixHeaderLen is tag + rows + cols + n.
	matrixHeaderLen = 32
	// chunkBytes is the scratch buffer ReadMatrix streams values through.
	chunkBytes = 32 << 10
)

// errOverLimit reports a matrix whose declared values do not fit in the
// bytes its reader may still hold.
var errOverLimit = errors.New("declared size exceeds the body")

var chunkPool = sync.Pool{New: func() any { return new([chunkBytes]byte) }}

// matrixBodyLen is the encoded size of m.
func matrixBodyLen(m *parsvd.Matrix) int64 {
	return matrixHeaderLen + 8*int64(len(m.RawData()))
}

// AppendMatrix appends m's binary body to buf.
func AppendMatrix(buf []byte, m *parsvd.Matrix) []byte {
	return tcptransport.AppendMessageBody(buf, mpi.Message{Rows: m.Rows(), Cols: m.Cols(), Data: m.RawData()})
}

// ReadMatrix decodes one binary matrix body from r, which holds at most
// limit more bytes. The header is validated before anything is
// allocated — tag 0, both dims at least 1, n = rows·cols, and 8·n within
// limit — and the values are then decoded in bounded chunks straight into
// the matrix's backing slice. Non-finite values are refused, as the
// facade refuses them in a pushed batch.
func ReadMatrix(r io.Reader, limit int64) (*parsvd.Matrix, error) {
	if limit < matrixHeaderLen {
		return nil, fmt.Errorf("server: matrix body truncated: %d bytes, the header alone takes %d", max(limit, 0), matrixHeaderLen)
	}
	var hdr [matrixHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("server: reading matrix header: %w", err)
	}
	tag := int64(binary.LittleEndian.Uint64(hdr[0:]))
	rows := int64(binary.LittleEndian.Uint64(hdr[8:]))
	cols := int64(binary.LittleEndian.Uint64(hdr[16:]))
	n := binary.LittleEndian.Uint64(hdr[24:])
	// Divide rather than multiply: the counts are the sender's, and
	// rows·cols or 8·n would wrap for hostile values.
	switch {
	case tag != 0:
		return nil, fmt.Errorf("server: matrix body has tag %d, want 0", tag)
	case rows < 1 || cols < 1:
		return nil, fmt.Errorf("server: matrix dims %dx%d: both must be >= 1", rows, cols)
	case n%uint64(cols) != 0 || n/uint64(cols) != uint64(rows):
		return nil, fmt.Errorf("server: matrix body declares %d values for a %dx%d matrix", n, rows, cols)
	case n > uint64(limit-matrixHeaderLen)/8:
		return nil, fmt.Errorf("server: %dx%d matrix body: %w (%d bytes left)", rows, cols, errOverLimit, limit-matrixHeaderLen)
	}
	buf := chunkPool.Get().(*[chunkBytes]byte)
	defer chunkPool.Put(buf)
	data, err := mat.ReadFloats(r, make([]float64, 0, n), int(n), buf[:])
	if err != nil {
		return nil, fmt.Errorf("server: reading %dx%d matrix values: %w", rows, cols, err)
	}
	if i := mat.FirstNonFinite(data); i >= 0 {
		return nil, fmt.Errorf("server: matrix body contains a non-finite value (%g) at index %d", data[i], i)
	}
	return parsvd.NewMatrixFromData(int(rows), int(cols), data)
}

// readMatrices decodes the count consecutive binary matrix bodies that
// make up all of r, which holds at most limit bytes.
func readMatrices(r io.Reader, limit int64, count int) ([]*parsvd.Matrix, error) {
	ms := make([]*parsvd.Matrix, count)
	for i := range ms {
		m, err := ReadMatrix(r, limit)
		if err != nil {
			return nil, err
		}
		limit -= matrixBodyLen(m)
		ms[i] = m
	}
	var extra [1]byte
	switch _, err := io.ReadFull(r, extra[:]); err {
	case io.EOF:
		return ms, nil
	case nil:
		return nil, errors.New("server: data after the last matrix body")
	default:
		return nil, fmt.Errorf("server: reading past the last matrix body: %w", err)
	}
}

// decodeMatrixBytes decodes a buffer that holds exactly one binary matrix
// body.
func decodeMatrixBytes(b []byte) (*parsvd.Matrix, error) {
	ms, err := readMatrices(bytes.NewReader(b), int64(len(b)), 1)
	if err != nil {
		return nil, err
	}
	return ms[0], nil
}

// binaryBody reports whether a request's Content-Type names a binary
// body: binary matrices, or a raw checkpoint on /merge.
func binaryBody(r *http.Request) bool {
	return mediaType(r.Header.Get("Content-Type")) == MatrixContentType
}

// acceptsBinary reports whether a request asks for a binary matrix
// response.
func acceptsBinary(r *http.Request) bool {
	for _, line := range r.Header.Values("Accept") {
		for _, part := range strings.Split(line, ",") {
			if mediaType(part) == MatrixContentType {
				return true
			}
		}
	}
	return false
}

// mediaType strips parameters and whitespace from a media type.
func mediaType(v string) string {
	mt, _, _ := strings.Cut(v, ";")
	return strings.ToLower(strings.TrimSpace(mt))
}

// bodyError classifies a failed read of a request body: past
// MaxBodyBytes it is ErrBodyTooLarge (413), anything else a malformed
// body (400).
func bodyError(what string, err error) error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return tooLarge(tooBig.Limit)
	}
	return fmt.Errorf("server: %s: %w", what, err)
}

func tooLarge(limit int64) error { return fmt.Errorf("%w (%d bytes)", ErrBodyTooLarge, limit) }

// decodeJSON reads a body that holds exactly one JSON value: anything but
// whitespace after it is refused.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return nil
		}
		if err == nil {
			err = errors.New("data after the first value")
		}
	}
	return bodyError("invalid JSON", err)
}

// readMatrix decodes a request's matrix operand in the format its
// Content-Type names.
func (s *Server) readMatrix(r *http.Request) (*parsvd.Matrix, error) {
	if binaryBody(r) {
		ms, err := s.readBinary(r, 1)
		if err != nil {
			return nil, err
		}
		return ms[0], nil
	}
	var mj MatrixJSON
	if err := decodeJSON(r, &mj); err != nil {
		return nil, err
	}
	return mj.Matrix()
}

// readSketch decodes a /push-sketch factor pair in the format the
// request's Content-Type names.
func (s *Server) readSketch(r *http.Request) (q, sk *parsvd.Matrix, err error) {
	if binaryBody(r) {
		ms, err := s.readBinary(r, 2)
		if err != nil {
			return nil, nil, err
		}
		return ms[0], ms[1], nil
	}
	var sj SketchPushJSON
	if err := decodeJSON(r, &sj); err != nil {
		return nil, nil, err
	}
	if q, err = sj.Q.Matrix(); err != nil {
		return nil, nil, err
	}
	if sk, err = sj.S.Matrix(); err != nil {
		return nil, nil, err
	}
	return q, sk, nil
}

// readBinary decodes the count binary matrix bodies that make up a
// request body. Each header is checked against the bytes the request
// declared — or, for a body of unknown length, against MaxBodyBytes —
// before its values are allocated.
func (s *Server) readBinary(r *http.Request, count int) ([]*parsvd.Matrix, error) {
	limit, declared := r.ContentLength, r.ContentLength >= 0
	if !declared {
		limit = s.cfg.MaxBodyBytes
	}
	if limit > s.cfg.MaxBodyBytes {
		return nil, tooLarge(s.cfg.MaxBodyBytes)
	}
	ms, err := readMatrices(r.Body, limit, count)
	if !declared && errors.Is(err, errOverLimit) {
		return nil, tooLarge(s.cfg.MaxBodyBytes)
	}
	if err != nil {
		return nil, bodyError("binary body", err)
	}
	return ms, nil
}

// writeMatrix answers with a computed matrix: binary when the request's
// Accept asks for it, otherwise asJSON — the endpoint's JSON response,
// which embeds the same matrix and version.
func writeMatrix(w http.ResponseWriter, r *http.Request, m *parsvd.Matrix, version uint64, asJSON any) {
	if !acceptsBinary(r) {
		writeJSON(w, http.StatusOK, asJSON)
		return
	}
	body := AppendMatrix(make([]byte, 0, matrixBodyLen(m)), m)
	w.Header().Set("Content-Type", MatrixContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Header().Set(VersionHeader, strconv.FormatUint(version, 10))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

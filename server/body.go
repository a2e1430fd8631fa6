package server

import (
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
)

// Binary matrix bodies. Every endpoint that takes or returns a matrix
// speaks JSON (MatrixJSON) and one binary form: a snapshot block in the
// layout of internal/mat/codec.go, byte for byte the WAL batch record, so
// a matrix crosses HTTP bit-for-bit. A request sends it under
// Content-Type: MatrixContentType (/push-sketch sends Q's block, then
// S's); a response carries it when the request's Accept names
// MatrixContentType, with the View version in the VersionHeader. Any
// other content type is JSON.
const (
	// MatrixContentType is the media type of binary matrix bodies.
	MatrixContentType = "application/octet-stream"
	// VersionHeader carries the View version of a binary matrix response
	// (and of a /checkpoint download).
	VersionHeader = "X-Parsvd-Version"

	// chunkBytes is the scratch buffer ReadMatrix streams values through.
	chunkBytes = 32 << 10
)

var chunkPool = sync.Pool{New: func() any { return new([chunkBytes]byte) }}

// AppendMatrix appends m's binary body to buf.
func AppendMatrix(buf []byte, m *parsvd.Matrix) []byte {
	return mat.AppendBlock(buf, 0, m.Rows(), m.Cols(), m.RawData())
}

// ReadMatrix decodes one binary matrix body from r, which holds at most
// limit more bytes, with every check of mat.ReadBlock: the header is
// validated before anything is allocated, and non-finite values are
// refused, as the facade refuses them in a pushed batch.
func ReadMatrix(r io.Reader, limit int64) (*parsvd.Matrix, error) {
	buf := chunkPool.Get().(*[chunkBytes]byte)
	defer chunkPool.Put(buf)
	m := new(parsvd.Matrix)
	if _, err := mat.ReadBlock(r, limit, m, buf[:]); err != nil {
		return nil, err
	}
	return m, nil
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
		limit -= int64(mat.BlockLen(len(m.RawData())))
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
	if !declared && errors.Is(err, mat.ErrBlockOverLimit) {
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
	body := AppendMatrix(nil, m)
	w.Header().Set("Content-Type", MatrixContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Header().Set(VersionHeader, strconv.FormatUint(version, 10))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

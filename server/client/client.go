// Package client is the typed Go client of the parsvd serving API
// (goparsvd/server, cmd/parsvd-serve): model lifecycle, snapshot pushes
// and snapshot-isolated queries over the HTTP API (JSON or binary
// bodies). Matrices travel as binary bodies (server.MatrixContentType)
// both ways; everything else is JSON.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	parsvd "goparsvd"
	"goparsvd/server"
)

// Client talks to one parsvd server. The zero value is not usable;
// construct with New.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient is the transport; nil means http.DefaultClient.
	HTTPClient *http.Client
	// Retry, when enabled (MaxAttempts >= 2), makes calls retry transient
	// failures — backpressure, shutdown, and (for idempotent methods
	// only) network errors and 5xx — with capped exponential backoff,
	// jitter, and Retry-After support. The zero value keeps the old
	// single-attempt behavior.
	Retry RetryPolicy
}

// New returns a client for the server at base (scheme://host[:port]).
func New(base string) *Client {
	return &Client{BaseURL: strings.TrimRight(base, "/")}
}

// APIError is a non-2xx response: the HTTP status plus the server's
// error message and, when the response carried a Retry-After header, the
// wait it asked for.
type APIError struct {
	StatusCode int
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("parsvd server: HTTP %d: %s", e.StatusCode, e.Message)
}

// IsRetryable reports whether the request may succeed if simply retried:
// backpressure (429) and shutdown (503) responses.
func (e *APIError) IsRetryable() bool {
	return e.StatusCode == http.StatusTooManyRequests || e.StatusCode == http.StatusServiceUnavailable
}

// do runs a JSON round trip under the client's retry policy. in == nil
// skips the request body, out == nil discards the response body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var payload []byte
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		payload = buf
	}
	var mkBody func() io.Reader
	if in != nil {
		mkBody = func() io.Reader { return bytes.NewReader(payload) }
	}
	return c.retryLoop(ctx, method, path, "application/json", mkBody, out)
}

// doStream runs a raw-body round trip (Content-Type contentType) under
// the retry policy. The body is streamed as-is — no buffering copy. When
// it implements io.Seeker (a bytes.Reader, an *os.File) retries rewind
// and resend it; a one-shot stream gets a single attempt.
func (c *Client) doStream(ctx context.Context, method, path, contentType string, body io.Reader, out any) error {
	seeker, _ := body.(io.Seeker)
	var start int64
	if seeker != nil {
		pos, err := seeker.Seek(0, io.SeekCurrent)
		if err != nil {
			seeker = nil
		} else {
			start = pos
		}
	}
	first := true
	mkBody := func() io.Reader {
		if first {
			first = false
			return body
		}
		if seeker == nil {
			return nil // signals retryLoop the body cannot be resent
		}
		if _, err := seeker.Seek(start, io.SeekStart); err != nil {
			return nil
		}
		return body
	}
	return c.retryLoop(ctx, method, path, contentType, mkBody, out)
}

// retryLoop drives attempts under the retry policy. mkBody is called per
// attempt for a fresh request body (nil mkBody: bodiless request; a nil
// return on a retry ends the loop — the body cannot be replayed).
func (c *Client) retryLoop(ctx context.Context, method, path, contentType string, mkBody func() io.Reader, out any) error {
	attempts := c.Retry.attempts()
	for attempt := 0; ; attempt++ {
		var body io.Reader
		if mkBody != nil {
			if body = mkBody(); body == nil && attempt > 0 {
				return fmt.Errorf("client: request body cannot be replayed for a retry (use a seekable reader)")
			}
		}
		err := c.once(ctx, method, path, contentType, body, out)
		if err == nil {
			return nil
		}
		if attempt+1 >= attempts || !retryable(method, err) {
			return err
		}
		if sleepErr := sleepCtx(ctx, c.Retry.delay(attempt, err)); sleepErr != nil {
			// The deadline or cancellation ended the retry loop; report it
			// together with what we were retrying.
			return fmt.Errorf("client: %w (giving up on retries; last error: %v)", sleepErr, err)
		}
	}
}

// once is a single HTTP attempt. out == nil discards the response body;
// *[]byte receives it raw; *matrixReply asks for and decodes a binary
// matrix; anything else is JSON-decoded into.
func (c *Client) once(ctx context.Context, method, path, contentType string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if _, ok := out.(*matrixReply); ok {
		req.Header.Set("Accept", server.MatrixContentType)
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var apiErr struct {
			Error string `json:"error"`
		}
		msg := resp.Status
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err == nil && apiErr.Error != "" {
			msg = apiErr.Error
		}
		return &APIError{StatusCode: resp.StatusCode, Message: msg, RetryAfter: parseRetryAfter(resp)}
	}
	switch dst := out.(type) {
	case nil:
		io.Copy(io.Discard, resp.Body)
	case *[]byte:
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Errorf("client: reading response: %w", err)
		}
		*dst = raw
	case *matrixReply:
		return dst.read(resp)
	default:
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("client: decoding response: %w", err)
		}
	}
	return nil
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) error {
	var h server.HealthResponse
	return c.do(ctx, http.MethodGet, "/healthz", nil, &h)
}

// CreateModel registers a new streaming decomposition.
func (c *Client) CreateModel(ctx context.Context, spec server.ModelSpec) (server.ModelInfo, error) {
	var info server.ModelInfo
	err := c.do(ctx, http.MethodPost, "/v1/models", spec, &info)
	return info, err
}

// Models lists the registered models, sorted by name.
func (c *Client) Models(ctx context.Context) ([]server.ModelInfo, error) {
	var infos []server.ModelInfo
	err := c.do(ctx, http.MethodGet, "/v1/models", nil, &infos)
	return infos, err
}

// Model fetches one model's info and stats.
func (c *Client) Model(ctx context.Context, name string) (server.ModelInfo, error) {
	var info server.ModelInfo
	err := c.do(ctx, http.MethodGet, "/v1/models/"+name, nil, &info)
	return info, err
}

// DeleteModel unregisters a model and removes its checkpoint.
func (c *Client) DeleteModel(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/models/"+name, nil, nil)
}

// Push ingests one M×B snapshot batch and waits until the server's
// ingest loop has applied it (possibly coalesced with concurrent pushes
// into one engine update). A 429 means the model's queue is full —
// back off and retry.
func (c *Client) Push(ctx context.Context, name string, batch *parsvd.Matrix) (server.PushAck, error) {
	var ack server.PushAck
	err := c.postMatrices(ctx, "/v1/models/"+name+"/push", &ack, batch)
	return ack, err
}

// PushSketched ingests one compressed sketch factor pair (Q, S) —
// produced by parsvd.Sketch from an M×B batch — instead of the full
// batch: the request carries L·(M+B) values rather than M·B, and the
// server reconstructs (or forwards the pair to its distributed fleet) on
// its side of the wire. The ack semantics match Push: 2xx means applied
// (and durable under a WAL), 429 means back off and retry.
func (c *Client) PushSketched(ctx context.Context, name string, q, s *parsvd.Matrix) (server.PushAck, error) {
	var ack server.PushAck
	err := c.postMatrices(ctx, "/v1/models/"+name+"/push-sketch", &ack, q, s)
	return ack, err
}

// Merge absorbs a shard-local fit into the named model: checkpoint
// streams raw bytes produced by parsvd.Save / parsvd.WriteCheckpoint /
// Client.Checkpoint to the server as application/octet-stream — no
// base64 envelope, no forced in-memory copy. Pass a seekable reader (a
// bytes.Reader, an *os.File) to let the retry policy rewind and resend
// on 429/503; a one-shot stream gets a single attempt. The merge rides
// the model's ingest loop, so a 2xx ack means it is applied (and
// durable, when the server runs a WAL). To merge a sibling model that
// lives on the same server, use MergeModel.
func (c *Client) Merge(ctx context.Context, name string, checkpoint io.Reader) (server.MergeAck, error) {
	var ack server.MergeAck
	err := c.doStream(ctx, http.MethodPost, "/v1/models/"+name+"/merge", "application/octet-stream", checkpoint, &ack)
	return ack, err
}

// MergeModel absorbs source — another model on the same server — into
// the target model. The server snapshots source's published view into
// checkpoint form and merges it, without disturbing source's live
// engine.
func (c *Client) MergeModel(ctx context.Context, target, source string) (server.MergeAck, error) {
	var ack server.MergeAck
	err := c.do(ctx, http.MethodPost, "/v1/models/"+target+"/merge", server.MergeRequest{Model: source}, &ack)
	return ack, err
}

// Checkpoint fetches the model's current published view serialized as
// checkpoint bytes — loadable with parsvd.Load, mergeable with
// SVD.Merge / parsvd.MergeReaders / Client.Merge. For shard-marked
// models the checkpoint carries the shard provenance stamp, so a
// coordinator can fetch each node's shard fit and reduce them with full
// overlap validation.
func (c *Client) Checkpoint(ctx context.Context, name string) ([]byte, error) {
	var raw []byte
	err := c.do(ctx, http.MethodGet, "/v1/models/"+name+"/checkpoint", nil, &raw)
	return raw, err
}

// Spectrum fetches the singular values of the model's current view.
func (c *Client) Spectrum(ctx context.Context, name string) (server.SpectrumResponse, error) {
	var sp server.SpectrumResponse
	err := c.do(ctx, http.MethodGet, "/v1/models/"+name+"/spectrum", nil, &sp)
	return sp, err
}

// Modes fetches the M×K mode matrix of the model's current view, plus
// the view version it belongs to.
func (c *Client) Modes(ctx context.Context, name string) (*parsvd.Matrix, uint64, error) {
	var mr matrixReply
	if err := c.do(ctx, http.MethodGet, "/v1/models/"+name+"/modes", nil, &mr); err != nil {
		return nil, 0, err
	}
	return mr.m, mr.version, nil
}

// Project maps M×B snapshots to K×B modal coefficients (Uᵀ·a) against
// the server's current view.
func (c *Client) Project(ctx context.Context, name string, snapshots *parsvd.Matrix) (*parsvd.Matrix, error) {
	return c.matrixCall(ctx, name, "project", snapshots)
}

// Reconstruct maps K×B coefficients back to M×B snapshot space (U·c).
func (c *Client) Reconstruct(ctx context.Context, name string, coeffs *parsvd.Matrix) (*parsvd.Matrix, error) {
	return c.matrixCall(ctx, name, "reconstruct", coeffs)
}

func (c *Client) matrixCall(ctx context.Context, name, op string, in *parsvd.Matrix) (*parsvd.Matrix, error) {
	var mr matrixReply
	if err := c.postMatrices(ctx, "/v1/models/"+name+"/"+op, &mr, in); err != nil {
		return nil, err
	}
	return mr.m, nil
}

// postMatrices posts ms as consecutive binary matrix bodies. The encoded
// body is seekable, so the retry policy can resend it.
func (c *Client) postMatrices(ctx context.Context, path string, out any, ms ...*parsvd.Matrix) error {
	var size int
	for _, m := range ms {
		size += 32 + 8*len(m.RawData()) // 32-byte header, then the values
	}
	body := make([]byte, 0, size)
	for _, m := range ms {
		body = server.AppendMatrix(body, m)
	}
	return c.doStream(ctx, http.MethodPost, path, server.MatrixContentType, bytes.NewReader(body), out)
}

// matrixReply receives a binary matrix response and the view version its
// header carries.
type matrixReply struct {
	m       *parsvd.Matrix
	version uint64
}

func (r *matrixReply) read(resp *http.Response) error {
	if ct := resp.Header.Get("Content-Type"); ct != server.MatrixContentType {
		return fmt.Errorf("client: response is %q, want %s", ct, server.MatrixContentType)
	}
	version, err := strconv.ParseUint(resp.Header.Get(server.VersionHeader), 10, 64)
	if err != nil {
		return fmt.Errorf("client: response %s header: %w", server.VersionHeader, err)
	}
	limit := resp.ContentLength
	if limit < 0 {
		limit = math.MaxInt64
	}
	m, err := server.ReadMatrix(resp.Body, limit)
	if err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	r.m, r.version = m, version
	return nil
}

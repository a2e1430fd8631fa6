package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	parsvd "goparsvd"
)

func quietConfig() Config {
	cfg := Config{Logf: func(string, ...any) {}}
	cfg.fillDefaults()
	return cfg
}

// detMatrix builds a deterministic rows×cols matrix.
func detMatrix(rows, cols int, seed float64) *parsvd.Matrix {
	m := parsvd.NewMatrix(rows, cols)
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			m.Set(i, j, seed+float64((i+2)*(j+3)%11)+0.25*float64(i)-0.5*float64(j))
		}
	}
	return m
}

// TestMicroBatchCoalescingBitIdentical is the micro-batch equivalence
// proof: N single-snapshot pushes sitting in the queue must be coalesced
// into ONE stacked engine update whose spectrum and modes are bit-
// identical to pushing the stacked matrix directly (serial backend).
func TestMicroBatchCoalescingBitIdentical(t *testing.T) {
	const rows, n = 32, 12
	full := detMatrix(rows, n, 1.0)

	opts := []parsvd.Option{parsvd.WithModes(4), parsvd.WithForgetFactor(0.95)}
	svd, err := parsvd.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quietConfig()
	cfg.QueueDepth = n + 4
	cfg.MaxCoalesce = n + 4

	// Enqueue all N single-column pushes BEFORE the ingest loop starts,
	// so the first drain sees them all at once.
	m := newModel(ModelSpec{Name: "coalesce"}, svd, cfg)
	reqs := make([]*pushReq, n)
	for j := 0; j < n; j++ {
		reqs[j] = newPushReq(record{batch: full.SliceCols(j, j+1)})
		if err := m.enqueue(reqs[j]); err != nil {
			t.Fatalf("enqueue %d: %v", j, err)
		}
	}
	m.run()
	defer m.shutdown(false)
	for j, req := range reqs {
		if err := (<-req.done).err; err != nil {
			t.Fatalf("push %d: %v", j, err)
		}
	}

	v := m.currentView()
	if v == nil {
		t.Fatal("no view published")
	}
	if v.Version != 1 {
		t.Fatalf("queued pushes were applied in %d updates, want 1 coalesced update", v.Version)
	}

	// Reference: the same stacked matrix in one direct Push.
	ref, err := parsvd.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Push(full); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Result()
	if err != nil {
		t.Fatal(err)
	}

	if len(v.Result.Singular) != len(want.Singular) {
		t.Fatalf("spectrum length %d, want %d", len(v.Result.Singular), len(want.Singular))
	}
	for i := range want.Singular {
		if v.Result.Singular[i] != want.Singular[i] {
			t.Fatalf("singular[%d] = %v, want bit-identical %v", i, v.Result.Singular[i], want.Singular[i])
		}
	}
	got, wantModes := v.Result.Modes, want.Modes
	if got.Rows() != wantModes.Rows() || got.Cols() != wantModes.Cols() {
		t.Fatalf("modes %dx%d, want %dx%d", got.Rows(), got.Cols(), wantModes.Rows(), wantModes.Cols())
	}
	for i := 0; i < got.Rows(); i++ {
		for j := 0; j < got.Cols(); j++ {
			if got.At(i, j) != wantModes.At(i, j) {
				t.Fatalf("modes[%d,%d] = %v, want bit-identical %v", i, j, got.At(i, j), wantModes.At(i, j))
			}
		}
	}
}

// TestCoalesceRespectsMaxCoalesce: more queued pushes than MaxCoalesce
// must split into multiple updates, all applied.
func TestCoalesceRespectsMaxCoalesce(t *testing.T) {
	const rows, n = 16, 10
	svd, err := parsvd.New(parsvd.WithModes(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quietConfig()
	cfg.QueueDepth = n
	cfg.MaxCoalesce = 4
	m := newModel(ModelSpec{Name: "split"}, svd, cfg)
	reqs := make([]*pushReq, n)
	for j := 0; j < n; j++ {
		reqs[j] = newPushReq(record{batch: detMatrix(rows, 1, float64(j))})
		if err := m.enqueue(reqs[j]); err != nil {
			t.Fatal(err)
		}
	}
	m.run()
	defer m.shutdown(false)
	for _, req := range reqs {
		if err := (<-req.done).err; err != nil {
			t.Fatal(err)
		}
	}
	v := m.currentView()
	if v == nil || v.Stats.Snapshots != n {
		t.Fatalf("view = %+v, want %d snapshots", v, n)
	}
	if v.Version < 3 {
		t.Fatalf("version %d: %d pushes with MaxCoalesce=4 should take >= 3 updates", v.Version, n)
	}
}

func pushBody(t *testing.T, m *parsvd.Matrix) []byte {
	t.Helper()
	buf, err := json.Marshal(NewMatrixJSON(m))
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestBackpressureAndClientCancel drives the bounded-queue contract over
// HTTP against a model whose ingest loop has not started (a stalled
// writer): a push whose client goes away gets a clean 499 — never a
// backend abort string — and the next push meets a full queue and gets
// 429. Once the writer comes back, the queued push is still applied.
func TestBackpressureAndClientCancel(t *testing.T) {
	s, err := New(Config{QueueDepth: 1, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	svd, err := parsvd.New(parsvd.WithModes(2))
	if err != nil {
		t.Fatal(err)
	}
	m := newModel(ModelSpec{Name: "stall"}, svd, s.cfg) // loop intentionally not running
	if err := s.reg.add(m); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	body := pushBody(t, detMatrix(8, 1, 0))

	// Client gone while its push waits in the queue: 499, clean message.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/models/stall/push", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("canceled push: HTTP %d, want %d (body %s)", rec.Code, StatusClientClosedRequest, rec.Body)
	}
	msg := rec.Body.String()
	if !strings.Contains(msg, "client closed the request") {
		t.Fatalf("canceled push body %q lacks the clean cancellation message", msg)
	}
	if strings.Contains(msg, "abort") || strings.Contains(msg, "context canceled") {
		t.Fatalf("canceled push leaks internal error text: %q", msg)
	}

	// The queue (depth 1) now holds that push: the next one is refused
	// with 429 + Retry-After.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/models/stall/push", bytes.NewReader(body)))
	if rec.Code != 429 {
		t.Fatalf("push against full queue: HTTP %d, want 429 (body %s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 response lacks Retry-After")
	}

	// Writer recovers: the queued push (whose client got 499) applies.
	m.run()
	deadline := time.Now().Add(5 * time.Second)
	for m.currentView() == nil {
		if time.Now().After(deadline) {
			t.Fatal("queued push was never applied after the ingest loop started")
		}
		time.Sleep(time.Millisecond)
	}
	if v := m.currentView(); v.Stats.Snapshots != 1 {
		t.Fatalf("snapshots = %d, want 1", v.Stats.Snapshots)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRetryAfterDerivedFromQueueOccupancy: the 429 Retry-After header is
// not a constant — it estimates drain time as ceil(pending/MaxCoalesce)
// seconds (clamped to [1, 30]), so a deeper backlog tells clients to
// stay away longer.
func TestRetryAfterDerivedFromQueueOccupancy(t *testing.T) {
	s, err := New(Config{QueueDepth: 6, MaxCoalesce: 2, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	svd, err := parsvd.New(parsvd.WithModes(2))
	if err != nil {
		t.Fatal(err)
	}
	m := newModel(ModelSpec{Name: "busy"}, svd, s.cfg) // stalled writer
	if err := s.reg.add(m); err != nil {
		t.Fatal(err)
	}

	// An empty queue still asks for the 1-second floor.
	if got := m.retryAfterSeconds(); got != 1 {
		t.Fatalf("retryAfterSeconds with empty queue = %d, want 1", got)
	}

	// Fill the queue against the stalled writer: 6 pending pushes with
	// MaxCoalesce=2 drain in ~3 coalesced updates.
	var reqs []*pushReq
	for j := 0; j < 6; j++ {
		req := newPushReq(record{batch: detMatrix(8, 1, float64(j))})
		if err := m.enqueue(req); err != nil {
			t.Fatalf("enqueue %d: %v", j, err)
		}
		reqs = append(reqs, req)
	}
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/models/busy/push", bytes.NewReader(pushBody(t, detMatrix(8, 1, 9)))))
	if rec.Code != 429 {
		t.Fatalf("push against full queue: HTTP %d, want 429 (body %s)", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want \"3\" (ceil(6 pending / MaxCoalesce 2))", got)
	}

	// The sketched-push ingress shares the same backpressure contract.
	sketchBody, err := json.Marshal(SketchPushJSON{
		Q: NewMatrixJSON(detMatrix(8, 2, 0)),
		S: NewMatrixJSON(detMatrix(2, 1, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/models/busy/push-sketch", bytes.NewReader(sketchBody)))
	if rec.Code != 429 {
		t.Fatalf("push-sketch against full queue: HTTP %d, want 429 (body %s)", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Retry-After"); got != "3" {
		t.Fatalf("push-sketch Retry-After = %q, want \"3\"", got)
	}

	// The estimate is clamped at 30 seconds no matter how deep the queue.
	m.pending.Store(1000)
	if got := m.retryAfterSeconds(); got != 30 {
		t.Fatalf("retryAfterSeconds with 1000 pending = %d, want the 30s clamp", got)
	}
	m.pending.Store(int64(len(reqs)))

	// Writer recovers; everything queued drains cleanly.
	m.run()
	for j, req := range reqs {
		if err := (<-req.done).err; err != nil {
			t.Fatalf("queued push %d: %v", j, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownFlushesQueue: pushes still queued when Close begins must be
// applied (and answered) before Close returns.
func TestShutdownFlushesQueue(t *testing.T) {
	s, err := New(Config{QueueDepth: 8, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	svd, err := parsvd.New(parsvd.WithModes(2))
	if err != nil {
		t.Fatal(err)
	}
	m := newModel(ModelSpec{Name: "flush"}, svd, s.cfg) // stalled writer
	if err := s.reg.add(m); err != nil {
		t.Fatal(err)
	}
	var reqs []*pushReq
	for j := 0; j < 5; j++ {
		req := newPushReq(record{batch: detMatrix(8, 1, float64(j))})
		if err := m.enqueue(req); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	m.run()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for j, req := range reqs {
		select {
		case res := <-req.done:
			if err := res.err; err != nil {
				t.Fatalf("flushed push %d: %v", j, err)
			}
		default:
			t.Fatalf("push %d unanswered after Close", j)
		}
	}
	if v := m.currentView(); v == nil || v.Stats.Snapshots != 5 {
		t.Fatalf("view after flush = %+v, want 5 snapshots", v)
	}
}

package server_test

// Server-side merge: POST /v1/models/{name}/merge rides the target's
// single-writer ingest queue, so merges order against pushes and fall
// under the same WAL durability barrier. These tests cover the two
// source forms (uploaded checkpoint bytes, sibling model), the
// validation contract (a corrupt or incompatible checkpoint is a 400
// that leaves the target serving unchanged), adopting into an empty
// model, and crash recovery through the WAL's merge records.

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	parsvd "goparsvd"
	"goparsvd/server"
	"goparsvd/server/client"

	"goparsvd/internal/testutil"
)

// mergeTestMatrix is exactly rank 4 with no noise floor: a K = 6 fit
// keeps every direction, so merging disjoint column shards is exact and
// sharded-vs-monolithic agreement is rounding-level.
func mergeTestMatrix() *parsvd.Matrix {
	a, _ := testutil.RandomLowRank(32, 16, 4, 0, testutil.NewRand(7))
	return a
}

// shardCheckpoint fits columns [lo, hi) of a as one shard-local model
// and returns its checkpoint bytes, stamped with WithShard provenance.
func shardCheckpoint(t *testing.T, a *parsvd.Matrix, lo, hi, k, index, count int) []byte {
	t.Helper()
	svd, err := parsvd.New(parsvd.WithModes(k), parsvd.WithShard(index, count))
	if err != nil {
		t.Fatal(err)
	}
	defer svd.Close()
	if _, err := svd.Fit(context.Background(), parsvd.FromMatrix(a.SliceCols(lo, hi), 4)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := svd.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// monolithicSpectrum is the ground truth: one serial fit over all of a.
func monolithicSpectrum(t *testing.T, a *parsvd.Matrix, k, batch int) []float64 {
	t.Helper()
	svd, err := parsvd.New(parsvd.WithModes(k))
	if err != nil {
		t.Fatal(err)
	}
	defer svd.Close()
	res, err := svd.Fit(context.Background(), parsvd.FromMatrix(a, batch))
	if err != nil {
		t.Fatal(err)
	}
	return res.Singular
}

func wantClose(t *testing.T, got, want []float64, tol float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: spectrum length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > tol {
			t.Fatalf("%s: singular[%d] = %v, want %v (|diff| = %g > %g)", what, i, got[i], want[i], d, tol)
		}
	}
}

// TestMergeUpload: the target ingests half the columns over HTTP, the
// other half arrives as an uploaded shard checkpoint, and the merged
// spectrum must match the monolithic fit of the full matrix. The model
// keeps streaming afterwards on the serial backend.
func TestMergeUpload(t *testing.T) {
	const k = 6
	a := mergeTestMatrix()
	c := boot(t, server.Config{})
	ctx := context.Background()

	if _, err := c.CreateModel(ctx, server.ModelSpec{Name: "target", Modes: k}); err != nil {
		t.Fatal(err)
	}
	for at := 0; at < 8; at += 4 {
		if _, err := c.Push(ctx, "target", a.SliceCols(at, at+4)); err != nil {
			t.Fatal(err)
		}
	}
	ckpt := shardCheckpoint(t, a, 8, 16, k, 1, 2)

	ack, err := c.Merge(ctx, "target", bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if ack.Snapshots != 16 {
		t.Fatalf("merge ack snapshots = %d, want 16", ack.Snapshots)
	}
	if ack.MergeBound > 1e-12 {
		t.Fatalf("exact-rank merge reports bound %g, want ~0", ack.MergeBound)
	}

	sp, err := c.Spectrum(ctx, "target")
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, sp.Singular, monolithicSpectrum(t, a, k, 4), 1e-10, "merged upload")

	// The merged model keeps ingesting and reports the serial backend.
	ack2, err := c.Push(ctx, "target", testMatrix(32, 4))
	if err != nil {
		t.Fatal(err)
	}
	if ack2.Snapshots != 20 {
		t.Fatalf("post-merge push snapshots = %d, want 20", ack2.Snapshots)
	}
	info, err := c.Model(ctx, "target")
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats.Backend != "serial" {
		t.Fatalf("post-merge backend %q, want serial", info.Stats.Backend)
	}
}

// TestMergeModelToModel: two sibling models each fit half the columns;
// merging one into the other by name must reproduce the monolithic
// spectrum while leaving the source model untouched.
func TestMergeModelToModel(t *testing.T) {
	const k = 6
	a := mergeTestMatrix()
	c := boot(t, server.Config{})
	ctx := context.Background()

	for _, m := range []struct {
		name   string
		lo, hi int
	}{{"left", 0, 8}, {"right", 8, 16}} {
		if _, err := c.CreateModel(ctx, server.ModelSpec{Name: m.name, Modes: k}); err != nil {
			t.Fatal(err)
		}
		for at := m.lo; at < m.hi; at += 4 {
			if _, err := c.Push(ctx, m.name, a.SliceCols(at, at+4)); err != nil {
				t.Fatal(err)
			}
		}
	}
	srcBefore, err := c.Spectrum(ctx, "right")
	if err != nil {
		t.Fatal(err)
	}

	ack, err := c.MergeModel(ctx, "left", "right")
	if err != nil {
		t.Fatal(err)
	}
	if ack.Snapshots != 16 {
		t.Fatalf("merge ack snapshots = %d, want 16", ack.Snapshots)
	}
	sp, err := c.Spectrum(ctx, "left")
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, sp.Singular, monolithicSpectrum(t, a, k, 4), 1e-10, "model-to-model merge")

	// The source is read through its published view, never mutated.
	srcAfter, err := c.Spectrum(ctx, "right")
	if err != nil {
		t.Fatal(err)
	}
	wantBitIdentical(t, srcAfter.Singular, srcBefore.Singular, "merge source")
}

// TestMergeRequestValidation: malformed requests are refused before
// anything reaches the ingest queue.
func TestMergeRequestValidation(t *testing.T) {
	c := boot(t, server.Config{})
	ctx := context.Background()
	if _, err := c.CreateModel(ctx, server.ModelSpec{Name: "m", Modes: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push(ctx, "m", testMatrix(8, 4)); err != nil {
		t.Fatal(err)
	}

	// Neither source and both sources set — posted as raw JSON, since the
	// typed client can no longer express these malformed shapes: 400.
	if got := postMergeJSON(t, c, "m", `{}`); got != http.StatusBadRequest {
		t.Fatalf("merge with no source: HTTP %d, want 400", got)
	}
	if got := postMergeJSON(t, c, "m", `{"model":"m2","checkpoint":"AQ=="}`); got != http.StatusBadRequest {
		t.Fatalf("merge with both sources: HTTP %d, want 400", got)
	}
	// Self-merge: 400.
	_, err := c.MergeModel(ctx, "m", "m")
	wantStatus(t, err, http.StatusBadRequest)
	// Unknown target model and unknown source model: 404.
	_, err = c.MergeModel(ctx, "nope", "m")
	wantStatus(t, err, http.StatusNotFound)
	_, err = c.MergeModel(ctx, "m", "nope")
	wantStatus(t, err, http.StatusNotFound)
	// A source model with no data yet has no view to snapshot: 409.
	if _, err := c.CreateModel(ctx, server.ModelSpec{Name: "hollow", Modes: 3}); err != nil {
		t.Fatal(err)
	}
	_, err = c.MergeModel(ctx, "m", "hollow")
	wantStatus(t, err, http.StatusConflict)
}

// postMergeJSON posts a hand-built JSON merge body (the legacy
// MergeRequest envelope) and returns the HTTP status.
func postMergeJSON(t *testing.T, c *client.Client, name, body string) int {
	t.Helper()
	resp, err := http.Post(c.BaseURL+"/v1/models/"+name+"/merge", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// TestMergeCorruptUploadDoesNotPoison is the fuzz/fault satellite of the
// merge subsystem: garbage bytes, a truncated real checkpoint, and an
// incompatible (different K) checkpoint must each come back 400 with the
// target's spectrum bit-identical and ingest still live — a refused
// merge is a no-op, not a fault.
func TestMergeCorruptUploadDoesNotPoison(t *testing.T) {
	const k = 6
	a := mergeTestMatrix()
	c := boot(t, server.Config{})
	ctx := context.Background()
	if _, err := c.CreateModel(ctx, server.ModelSpec{Name: "m", Modes: k}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push(ctx, "m", a.SliceCols(0, 8)); err != nil {
		t.Fatal(err)
	}
	before, err := c.Spectrum(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}

	good := shardCheckpoint(t, a, 8, 16, k, 1, 2)
	for _, tc := range []struct {
		name string
		ckpt []byte
	}{
		{"garbage", []byte("these are not the bytes you are looking for")},
		{"truncated", good[:40]},
		{"wrong-k", shardCheckpoint(t, a, 8, 16, k+2, 1, 2)},
		// Headers declaring shapes the body cannot back: 0×2^62 in 95
		// bytes, and 2^17×2^17 (within the element bound) in 1 MiB.
		{"hostile-shape", hostileCheckpointHeader(0, 1<<62, 1)},
		{"huge-declared", hostileCheckpointHeader(1<<17, 1<<17, 1<<20-94)},
	} {
		_, err := c.Merge(ctx, "m", bytes.NewReader(tc.ckpt))
		wantStatus(t, err, http.StatusBadRequest)
		after, err := c.Spectrum(ctx, "m")
		if err != nil {
			t.Fatalf("%s: target stopped serving after refused merge: %v", tc.name, err)
		}
		wantBitIdentical(t, after.Singular, before.Singular, tc.name)
		info, err := c.Model(ctx, "m")
		if err != nil {
			t.Fatal(err)
		}
		if info.IngestErr != "" {
			t.Fatalf("%s: refused merge recorded an ingest fault: %q", tc.name, info.IngestErr)
		}
	}

	// The model is not soured: the good checkpoint still merges and a
	// push still lands.
	if _, err := c.Merge(ctx, "m", bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	ack, err := c.Push(ctx, "m", testMatrix(32, 4))
	if err != nil {
		t.Fatal(err)
	}
	if ack.Snapshots != 20 {
		t.Fatalf("post-recovery push snapshots = %d, want 20", ack.Snapshots)
	}
}

// hostileCheckpointHeader is a version-1 checkpoint header (K = 6,
// ff = 0.95) declaring a rows×cols state, followed by tail zero bytes.
func hostileCheckpointHeader(rows, cols int64, tail int) []byte {
	b := []byte("GPSV\x01")
	for _, v := range []int64{6, 0, 8} { // K, iterations, snapshots
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0.95))
	b = append(b, 0)                                       // lowRank
	for _, v := range []int64{0, 0, 0, 0, 0, rows, cols} { // rla, r1, method, shape
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return append(b, make([]byte, tail)...)
}

// TestMergeIntoEmptyModel: merging into a model that has seen no data
// adopts the checkpoint outright (the degenerate single-operand merge)
// and the model continues as if restored from it.
func TestMergeIntoEmptyModel(t *testing.T) {
	const k = 6
	a := mergeTestMatrix()
	c := boot(t, server.Config{})
	ctx := context.Background()
	if _, err := c.CreateModel(ctx, server.ModelSpec{Name: "blank", Modes: k}); err != nil {
		t.Fatal(err)
	}

	ckpt := shardCheckpoint(t, a, 0, 16, k, 0, 1)
	ack, err := c.Merge(ctx, "blank", bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if ack.Snapshots != 16 {
		t.Fatalf("adopt ack snapshots = %d, want 16", ack.Snapshots)
	}
	sp, err := c.Spectrum(ctx, "blank")
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, sp.Singular, monolithicSpectrum(t, a, k, 4), 1e-12, "adopted checkpoint")
	if _, err := c.Push(ctx, "blank", testMatrix(32, 4)); err != nil {
		t.Fatal(err)
	}
}

// TestMergeWALReplay: a merge is one WAL record (the absorbed
// checkpoint, verbatim) between batch records; a crash after the ack
// must recover the model — batches, merge, more batches — bit-for-bit
// from spec + WAL alone, with no checkpoint ever written.
func TestMergeWALReplay(t *testing.T) {
	const k = 6
	a := mergeTestMatrix()
	dir := t.TempDir()
	cfg := server.Config{CheckpointDir: dir, CheckpointInterval: time.Hour, Logf: func(string, ...any) {}}
	ctx := context.Background()

	s1 := bootCrashable(t, cfg)
	if _, err := s1.c.CreateModel(ctx, server.ModelSpec{Name: "m", Modes: k}); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.c.Push(ctx, "m", a.SliceCols(0, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.c.Push(ctx, "m", a.SliceCols(4, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.c.Merge(ctx, "m", bytes.NewReader(shardCheckpoint(t, a, 8, 16, k, 1, 2))); err != nil {
		t.Fatal(err)
	}
	// One more batch after the merge, so replay must cross the merge
	// record and keep going on the post-merge serial engine.
	if _, err := s1.c.Push(ctx, "m", testMatrix(32, 4)); err != nil {
		t.Fatal(err)
	}
	want, err := s1.c.Spectrum(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	s1.crash()

	s2 := bootCrashable(t, cfg)
	got, err := s2.c.Spectrum(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	wantBitIdentical(t, got.Singular, want.Singular, "merge replay")
	var h server.HealthResponse
	getJSON(t, s2.ts.URL+"/healthz", &h)
	if len(h.Health) != 1 || h.Health[0].ReplayedOnBoot != 4 {
		t.Fatalf("post-recovery health %+v, want replayed_on_boot=4", h.Health)
	}
	s2.crash()

	// Replay is idempotent: a second boot on the untouched dir agrees.
	s3 := bootCrashable(t, cfg)
	again, err := s3.c.Spectrum(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	wantBitIdentical(t, again.Singular, want.Singular, "second merge replay")
	// And the recovered model still ingests and still logs.
	if _, err := s3.c.Push(ctx, "m", testMatrix(32, 4)); err != nil {
		t.Fatal(err)
	}
	s3.ts.Close()
	if err := s3.srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeShardOverlapRefused: the server surfaces the facade's
// provenance checks — absorbing the same shard twice is a 400.
func TestMergeShardOverlapRefused(t *testing.T) {
	const k = 6
	a := mergeTestMatrix()
	c := boot(t, server.Config{})
	ctx := context.Background()
	if _, err := c.CreateModel(ctx, server.ModelSpec{Name: "m", Modes: k}); err != nil {
		t.Fatal(err)
	}
	ckpt := shardCheckpoint(t, a, 0, 8, k, 0, 2)
	if _, err := c.Merge(ctx, "m", bytes.NewReader(ckpt)); err != nil {
		t.Fatal(err)
	}
	_, err := c.Merge(ctx, "m", bytes.NewReader(ckpt))
	wantStatus(t, err, http.StatusBadRequest)
	// The sibling shard is still welcome.
	if _, err := c.Merge(ctx, "m", bytes.NewReader(shardCheckpoint(t, a, 8, 16, k, 1, 2))); err != nil {
		t.Fatal(err)
	}
}

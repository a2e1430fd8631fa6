package server_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	parsvd "goparsvd"
	"goparsvd/server"
	"goparsvd/server/client"
)

// crashableServer is a server whose process "crash" we simulate by
// abandoning it: the HTTP listener closes but Close is never called, so no
// final checkpoint is written and whatever the WAL holds is all that
// survives — the same state a kill -9 leaves behind (the real-SIGKILL
// version of this lives in crash_test.go).
type crashableServer struct {
	srv *server.Server
	ts  *httptest.Server
	c   *client.Client
}

func bootCrashable(t *testing.T, cfg server.Config) *crashableServer {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = func(format string, args ...any) { t.Logf(format, args...) }
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	return &crashableServer{srv: srv, ts: ts, c: client.New(ts.URL)}
}

// crash abandons the server without flushing: no Close, no final
// checkpoint. The listener closes and every model's ingest loop stops, as
// the process's would on a kill, so the abandoned server's checkpoint
// timer cannot write into the directory a successor recovers from.
func (s *crashableServer) crash() {
	s.ts.Close()
	server.Abandon(s.srv)
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// referenceSpectrum runs the same batch sequence through an in-process
// serial engine: the ground truth any recovery must match bit-for-bit.
func referenceSpectrum(t *testing.T, spec server.ModelSpec, batches []*parsvd.Matrix) []float64 {
	t.Helper()
	opts := []parsvd.Option{parsvd.WithModes(spec.Modes)}
	if spec.ForgetFactor != 0 {
		opts = append(opts, parsvd.WithForgetFactor(spec.ForgetFactor))
	}
	svd, err := parsvd.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer svd.Close()
	for _, b := range batches {
		if err := svd.Push(b); err != nil {
			t.Fatal(err)
		}
	}
	res, err := svd.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res.Singular
}

func wantBitIdentical(t *testing.T, got, want []float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: spectrum length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: singular[%d] = %v, want bit-identical %v", what, i, got[i], want[i])
		}
	}
}

// newestSegment returns the path of the newest WAL segment of a model.
func newestSegment(t *testing.T, dir, name string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, name+".wal", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments for %s: %v", name, err)
	}
	return segs[len(segs)-1]
}

// TestWALCrashRecovery is the core durability contract at the unit level:
// a server that dies without checkpointing loses nothing that was acked —
// the spec file rebuilds the model and the WAL replays every applied
// micro-batch, bit-for-bit. Booting twice is idempotent.
func TestWALCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{CheckpointDir: dir, CheckpointInterval: time.Hour, Logf: func(string, ...any) {}}
	ctx := context.Background()
	spec := server.ModelSpec{Name: "persist", Modes: 3, ForgetFactor: 0.9}
	snaps := testMatrix(16, 16)
	batches := []*parsvd.Matrix{snaps.SliceCols(0, 8), snaps.SliceCols(8, 12), snaps.SliceCols(12, 16)}

	s1 := bootCrashable(t, cfg)
	if _, err := s1.c.CreateModel(ctx, spec); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := s1.c.Push(ctx, "persist", b); err != nil {
			t.Fatal(err)
		}
	}

	// Durability exposure is visible before the crash: the model is dirty
	// (no checkpoint yet) and the WAL holds all three records.
	var h server.HealthResponse
	getJSON(t, s1.ts.URL+"/healthz", &h)
	if len(h.Health) != 1 || !h.Health[0].Dirty || !h.Health[0].WAL || h.Health[0].WALRecords != 3 {
		t.Fatalf("pre-crash health %+v, want dirty=true wal=true wal_records=3", h.Health)
	}
	if h.Health[0].DirtyAgeSeconds <= 0 {
		t.Fatalf("dirty model reports age %v, want > 0", h.Health[0].DirtyAgeSeconds)
	}
	metrics := getBody(t, s1.ts.URL+"/metrics")
	if !strings.Contains(metrics, `parsvd_model_wal_appends{model="persist"} 3`) {
		t.Fatalf("metrics missing wal_appends=3:\n%s", metrics)
	}
	if !strings.Contains(metrics, `parsvd_model_wal_fsyncs{model="persist"}`) {
		t.Fatalf("metrics missing wal_fsyncs:\n%s", metrics)
	}

	s1.crash()
	if _, err := os.Stat(filepath.Join(dir, "persist.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("crash simulation wrote a checkpoint; the test proves nothing: %v", err)
	}

	want := referenceSpectrum(t, spec, batches)

	// Boot 1: spec + WAL replay must reconstruct the exact state.
	s2 := bootCrashable(t, cfg)
	sp2, err := s2.c.Spectrum(ctx, "persist")
	if err != nil {
		t.Fatal(err)
	}
	wantBitIdentical(t, sp2.Singular, want, "first recovery")
	getJSON(t, s2.ts.URL+"/healthz", &h)
	if len(h.Health) != 1 || h.Health[0].ReplayedOnBoot != 3 {
		t.Fatalf("post-recovery health %+v, want replayed_on_boot=3", h.Health)
	}
	metrics = getBody(t, s2.ts.URL+"/metrics")
	if !strings.Contains(metrics, `parsvd_model_wal_replayed_records{model="persist"} 3`) {
		t.Fatalf("metrics missing wal_replayed_records=3:\n%s", metrics)
	}
	if !strings.Contains(metrics, `parsvd_model_recovery_seconds{model="persist"}`) {
		t.Fatalf("metrics missing recovery_seconds:\n%s", metrics)
	}
	s2.crash()

	// Boot 2 on the same untouched dir: replay is idempotent.
	s3 := bootCrashable(t, cfg)
	sp3, err := s3.c.Spectrum(ctx, "persist")
	if err != nil {
		t.Fatal(err)
	}
	wantBitIdentical(t, sp3.Singular, sp2.Singular, "second recovery")

	// The recovered model keeps streaming and keeps logging.
	if _, err := s3.c.Push(ctx, "persist", testMatrix(16, 4)); err != nil {
		t.Fatal(err)
	}
	s3.ts.Close()
	if err := s3.srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALTornTailNeverFailsBoot: a crash mid-append leaves a torn final
// frame; boot must truncate it and recover every complete record instead
// of refusing to start.
func TestWALTornTailNeverFailsBoot(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{CheckpointDir: dir, CheckpointInterval: time.Hour, Logf: func(string, ...any) {}}
	ctx := context.Background()
	spec := server.ModelSpec{Name: "torn", Modes: 2, ForgetFactor: 1}
	snaps := testMatrix(12, 8)
	batches := []*parsvd.Matrix{snaps.SliceCols(0, 4), snaps.SliceCols(4, 8)}

	s1 := bootCrashable(t, cfg)
	if _, err := s1.c.CreateModel(ctx, spec); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := s1.c.Push(ctx, "torn", b); err != nil {
			t.Fatal(err)
		}
	}
	s1.crash()

	// A torn append: half a frame header at the end of the newest segment.
	seg := newestSegment(t, dir, "torn")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := bootCrashable(t, cfg)
	defer s2.crash()
	sp, err := s2.c.Spectrum(ctx, "torn")
	if err != nil {
		t.Fatalf("torn tail failed the boot: %v", err)
	}
	wantBitIdentical(t, sp.Singular, referenceSpectrum(t, spec, batches), "torn-tail recovery")
	metrics := getBody(t, s2.ts.URL+"/metrics")
	if !strings.Contains(metrics, `parsvd_model_wal_truncated_bytes{model="torn"} 3`) {
		t.Fatalf("metrics missing wal_truncated_bytes=3:\n%s", metrics)
	}
}

// TestWALMidLogCorruptionQuarantinesModel: a bit flip inside a committed
// record is unrecoverable silent corruption — the model must be
// quarantined (all state renamed .bad), not served from damaged data, and
// the rest of the server must boot.
func TestWALMidLogCorruptionQuarantinesModel(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{CheckpointDir: dir, CheckpointInterval: time.Hour, Logf: func(string, ...any) {}}
	ctx := context.Background()

	s1 := bootCrashable(t, cfg)
	for _, name := range []string{"victim", "bystander"} {
		if _, err := s1.c.CreateModel(ctx, server.ModelSpec{Name: name, Modes: 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := s1.c.Push(ctx, name, testMatrix(12, 4)); err != nil {
			t.Fatal(err)
		}
		if _, err := s1.c.Push(ctx, name, testMatrix(12, 4)); err != nil {
			t.Fatal(err)
		}
	}
	s1.crash()

	// Flip one byte inside the first record's body.
	seg := newestSegment(t, dir, "victim")
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	buf[20] ^= 0x40
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := bootCrashable(t, cfg)
	defer s2.crash()
	models, err := s2.c.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Spec.Name != "bystander" {
		t.Fatalf("restored models %+v, want just [bystander]", models)
	}
	if _, err := os.Stat(filepath.Join(dir, "victim.wal.bad")); err != nil {
		t.Fatalf("corrupt wal not quarantined: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "victim.spec.json.bad")); err != nil {
		t.Fatalf("spec of quarantined model not renamed: %v", err)
	}
}

// TestCheckpointRotatesWAL: a successful checkpoint is the truncation
// barrier — the records it covers rotate out, and recovery afterwards
// still reproduces the full acked history (checkpoint base + remaining
// records).
func TestCheckpointRotatesWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{CheckpointDir: dir, CheckpointInterval: 20 * time.Millisecond, Logf: func(string, ...any) {}}
	ctx := context.Background()
	spec := server.ModelSpec{Name: "rotate", Modes: 3, ForgetFactor: 0.95}
	snaps := testMatrix(16, 16)
	batches := []*parsvd.Matrix{snaps.SliceCols(0, 8), snaps.SliceCols(8, 12), snaps.SliceCols(12, 16)}

	s1 := bootCrashable(t, cfg)
	if _, err := s1.c.CreateModel(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.c.Push(ctx, "rotate", batches[0]); err != nil {
		t.Fatal(err)
	}
	// Wait for the periodic checkpoint to land and rotate the record out.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var h server.HealthResponse
		getJSON(t, s1.ts.URL+"/healthz", &h)
		if len(h.Health) == 1 && !h.Health[0].Dirty && h.Health[0].WALRecords == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpoint never rotated the WAL: %+v", h.Health)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Two more acked pushes after the barrier, then crash.
	if _, err := s1.c.Push(ctx, "rotate", batches[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.c.Push(ctx, "rotate", batches[2]); err != nil {
		t.Fatal(err)
	}
	s1.crash()

	s2 := bootCrashable(t, cfg)
	defer s2.crash()
	sp, err := s2.c.Spectrum(ctx, "rotate")
	if err != nil {
		t.Fatal(err)
	}
	wantBitIdentical(t, sp.Singular, referenceSpectrum(t, spec, batches), "post-rotation recovery")
}

// TestSpecMakesCreateDurable: a model created and never pushed to must
// still exist after a crash — the spec file alone rebuilds it.
func TestSpecMakesCreateDurable(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{CheckpointDir: dir, CheckpointInterval: time.Hour, Logf: func(string, ...any) {}}
	ctx := context.Background()

	s1 := bootCrashable(t, cfg)
	if _, err := s1.c.CreateModel(ctx, server.ModelSpec{Name: "empty", Modes: 4, ForgetFactor: 0.8}); err != nil {
		t.Fatal(err)
	}
	s1.crash()

	s2 := bootCrashable(t, cfg)
	defer s2.crash()
	info, err := s2.c.Model(ctx, "empty")
	if err != nil {
		t.Fatal(err)
	}
	if info.Spec.Modes != 4 || info.Spec.ForgetFactor != 0.8 || info.Stats.Snapshots != 0 {
		t.Fatalf("restored empty model %+v, want modes=4 ff=0.8 snapshots=0", info)
	}
	// And it accepts its first push.
	if _, err := s2.c.Push(ctx, "empty", testMatrix(8, 4)); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteRemovesDurableState: delete must take the spec and WAL with
// it, or the model resurrects on the next boot.
func TestDeleteRemovesDurableState(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{CheckpointDir: dir, CheckpointInterval: time.Hour, Logf: func(string, ...any) {}}
	ctx := context.Background()

	s1 := bootCrashable(t, cfg)
	if _, err := s1.c.CreateModel(ctx, server.ModelSpec{Name: "gone", Modes: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.c.Push(ctx, "gone", testMatrix(8, 4)); err != nil {
		t.Fatal(err)
	}
	if err := s1.c.DeleteModel(ctx, "gone"); err != nil {
		t.Fatal(err)
	}
	for _, leftover := range []string{"gone.spec.json", "gone.wal"} {
		if _, err := os.Stat(filepath.Join(dir, leftover)); !os.IsNotExist(err) {
			t.Fatalf("%s survives model deletion: %v", leftover, err)
		}
	}
	s1.crash()

	s2 := bootCrashable(t, cfg)
	defer s2.crash()
	models, err := s2.c.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 0 {
		t.Fatalf("deleted model resurrected: %+v", models)
	}
}

// TestDisableWAL reverts to checkpoint-only persistence: no WAL dir is
// created and /healthz reports the model as un-logged.
func TestDisableWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{CheckpointDir: dir, CheckpointInterval: time.Hour, DisableWAL: true, Logf: func(string, ...any) {}}
	ctx := context.Background()

	s := bootCrashable(t, cfg)
	if _, err := s.c.CreateModel(ctx, server.ModelSpec{Name: "plain", Modes: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.c.Push(ctx, "plain", testMatrix(8, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "plain.wal")); !os.IsNotExist(err) {
		t.Fatalf("DisableWAL still created a WAL dir: %v", err)
	}
	var h server.HealthResponse
	getJSON(t, s.ts.URL+"/healthz", &h)
	if len(h.Health) != 1 || h.Health[0].WAL {
		t.Fatalf("health %+v, want wal=false", h.Health)
	}
	s.ts.Close()
	if err := s.srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFsyncPolicies: every policy accepts pushes and survives (at least)
// an orderly crash; an unknown policy is refused at construction.
func TestFsyncPolicies(t *testing.T) {
	ctx := context.Background()
	for _, policy := range []server.FsyncPolicy{server.FsyncAlways, server.FsyncInterval, server.FsyncNever} {
		dir := t.TempDir()
		cfg := server.Config{
			CheckpointDir: dir, CheckpointInterval: time.Hour,
			Fsync: policy, FsyncInterval: 5 * time.Millisecond,
			Logf: func(string, ...any) {},
		}
		s1 := bootCrashable(t, cfg)
		spec := server.ModelSpec{Name: "m", Modes: 2}
		if _, err := s1.c.CreateModel(ctx, spec); err != nil {
			t.Fatal(err)
		}
		batch := testMatrix(10, 6)
		if _, err := s1.c.Push(ctx, "m", batch); err != nil {
			t.Fatalf("policy %s: %v", policy, err)
		}
		s1.crash()

		s2 := bootCrashable(t, cfg)
		sp, err := s2.c.Spectrum(ctx, "m")
		if err != nil {
			t.Fatalf("policy %s: recovery: %v", policy, err)
		}
		wantBitIdentical(t, sp.Singular, referenceSpectrum(t, spec, []*parsvd.Matrix{batch}),
			"policy "+string(policy))
		s2.crash()
	}
	if _, err := server.New(server.Config{CheckpointDir: t.TempDir(), Fsync: "sometimes"}); err == nil {
		t.Fatal("bogus fsync policy accepted")
	}
}

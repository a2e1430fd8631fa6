package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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

// boot spins up a server on an httptest listener and returns a client on
// it. Cleanup closes HTTP first, then flushes the server — the same order
// cmd/parsvd-serve uses.
func boot(t *testing.T, cfg server.Config) *client.Client {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = func(format string, args ...any) { t.Logf(format, args...) }
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return client.New(ts.URL)
}

func testMatrix(rows, cols int) *parsvd.Matrix {
	m := parsvd.NewMatrix(rows, cols)
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			m.Set(i, j, float64((i+3)*(j+5)%13)+0.125*float64(i*j%7))
		}
	}
	return m
}

func wantStatus(t *testing.T, err error, status int) {
	t.Helper()
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v, want *client.APIError with status %d", err, status)
	}
	if apiErr.StatusCode != status {
		t.Fatalf("HTTP %d (%s), want %d", apiErr.StatusCode, apiErr.Message, status)
	}
}

func TestModelLifecycle(t *testing.T) {
	c := boot(t, server.Config{})
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}

	// Validation failures at create time.
	_, err := c.CreateModel(ctx, server.ModelSpec{Name: "no/slashes"})
	wantStatus(t, err, http.StatusBadRequest)
	_, err = c.CreateModel(ctx, server.ModelSpec{Name: "bogus", Backend: "quantum"})
	wantStatus(t, err, http.StatusBadRequest)
	_, err = c.CreateModel(ctx, server.ModelSpec{Name: "badff", ForgetFactor: 1.5})
	wantStatus(t, err, http.StatusBadRequest)

	// A distributed model registers like any other (its worker fleet
	// spawns lazily on the first push); it lists, reports stats and
	// deletes cleanly without ever having ingested data.
	distInfo, err := c.CreateModel(ctx, server.ModelSpec{Name: "dist", Backend: "distributed", Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if distInfo.Stats.Backend != "distributed" || distInfo.Stats.Ranks != 2 {
		t.Fatalf("distributed model info %+v, want distributed ranks=2", distInfo.Stats)
	}
	if err := c.DeleteModel(ctx, "dist"); err != nil {
		t.Fatal(err)
	}

	info, err := c.CreateModel(ctx, server.ModelSpec{Name: "a", Modes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats.K != 3 || info.Stats.Backend != "serial" {
		t.Fatalf("created info %+v, want K=3 serial", info.Stats)
	}
	_, err = c.CreateModel(ctx, server.ModelSpec{Name: "a"})
	wantStatus(t, err, http.StatusConflict)

	if _, err := c.CreateModel(ctx, server.ModelSpec{Name: "b", Modes: 2, Backend: "parallel", Ranks: 2}); err != nil {
		t.Fatal(err)
	}

	models, err := c.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 || models[0].Spec.Name != "a" || models[1].Spec.Name != "b" {
		t.Fatalf("model list %+v, want [a b]", models)
	}

	// Reads against a model with no data: 409; unknown model: 404.
	_, err = c.Spectrum(ctx, "a")
	wantStatus(t, err, http.StatusConflict)
	_, err = c.Spectrum(ctx, "nope")
	wantStatus(t, err, http.StatusNotFound)
	_, err = c.Push(ctx, "nope", testMatrix(4, 1))
	wantStatus(t, err, http.StatusNotFound)

	if err := c.DeleteModel(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	err = c.DeleteModel(ctx, "b")
	wantStatus(t, err, http.StatusNotFound)
}

// TestPushAndQuery drives the full data path over HTTP for both in-process
// backends and cross-checks the served state against a direct facade run.
func TestPushAndQuery(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec server.ModelSpec
		opts []parsvd.Option
	}{
		{
			name: "serial",
			spec: server.ModelSpec{Name: "serial", Modes: 4, ForgetFactor: 0.95},
			opts: []parsvd.Option{parsvd.WithModes(4), parsvd.WithForgetFactor(0.95)},
		},
		{
			name: "parallel",
			spec: server.ModelSpec{Name: "parallel", Modes: 4, ForgetFactor: 0.95, Backend: "parallel", Ranks: 2},
			opts: []parsvd.Option{parsvd.WithModes(4), parsvd.WithForgetFactor(0.95), parsvd.WithBackend(parsvd.Parallel), parsvd.WithRanks(2)},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := boot(t, server.Config{})
			ctx := context.Background()
			if _, err := c.CreateModel(ctx, tc.spec); err != nil {
				t.Fatal(err)
			}

			const rows, cols, batch = 24, 18, 6
			snaps := testMatrix(rows, cols)
			ref, err := parsvd.New(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()

			var ack server.PushAck
			for at := 0; at < cols; at += batch {
				b := snaps.SliceCols(at, at+batch)
				if ack, err = c.Push(ctx, tc.spec.Name, b); err != nil {
					t.Fatal(err)
				}
				if err := ref.Push(b); err != nil {
					t.Fatal(err)
				}
			}
			if ack.Snapshots != cols {
				t.Fatalf("ack snapshots %d, want %d", ack.Snapshots, cols)
			}
			want, err := ref.Result()
			if err != nil {
				t.Fatal(err)
			}

			sp, err := c.Spectrum(ctx, tc.spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			if len(sp.Singular) != len(want.Singular) {
				t.Fatalf("spectrum length %d, want %d", len(sp.Singular), len(want.Singular))
			}
			for i := range want.Singular {
				if sp.Singular[i] != want.Singular[i] {
					t.Fatalf("singular[%d] = %v, want %v (sequential HTTP pushes must match direct pushes bit-for-bit)", i, sp.Singular[i], want.Singular[i])
				}
			}

			modes, version, err := c.Modes(ctx, tc.spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			if version != sp.Version {
				t.Fatalf("modes version %d != spectrum version %d", version, sp.Version)
			}
			if modes.Rows() != rows || modes.Cols() != 4 {
				t.Fatalf("modes %dx%d, want %dx4", modes.Rows(), modes.Cols(), rows)
			}

			// Server-side projection round trip against the view's modes.
			probe := snaps.SliceCols(0, 2)
			coeffs, err := c.Project(ctx, tc.spec.Name, probe)
			if err != nil {
				t.Fatal(err)
			}
			if coeffs.Rows() != 4 || coeffs.Cols() != 2 {
				t.Fatalf("coefficients %dx%d, want 4x2", coeffs.Rows(), coeffs.Cols())
			}
			back, err := c.Reconstruct(ctx, tc.spec.Name, coeffs)
			if err != nil {
				t.Fatal(err)
			}
			if rel := parsvd.Sub(back, probe).FroNorm() / probe.FroNorm(); rel > 0.5 {
				t.Fatalf("rank-4 reconstruction relative error %g is implausibly large", rel)
			}
			// Dimension mistakes come back as 400s, not panics.
			_, err = c.Project(ctx, tc.spec.Name, testMatrix(rows+1, 1))
			wantStatus(t, err, http.StatusBadRequest)
			_, err = c.Reconstruct(ctx, tc.spec.Name, testMatrix(5, 1))
			wantStatus(t, err, http.StatusBadRequest)

			stats, err := c.Model(ctx, tc.spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Stats.Snapshots != cols || stats.Stats.Rows != rows || stats.Stats.Updates != int64(cols/batch) {
				t.Fatalf("served stats %+v, want %d snapshots / %d rows / %d updates", stats.Stats, cols, rows, cols/batch)
			}
			if stats.Stats.Messages != 0 || stats.Stats.Bytes != 0 {
				t.Fatalf("%s model reports inter-rank traffic %d messages / %d bytes, want none in one process",
					tc.name, stats.Stats.Messages, stats.Stats.Bytes)
			}
		})
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, err := server.New(server.Config{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()
	if _, err := c.CreateModel(ctx, server.ModelSpec{Name: "m1", Modes: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push(ctx, "m1", testMatrix(8, 3)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"parsvd_models 1",
		`parsvd_model_snapshots{model="m1"} 3`,
		`parsvd_model_queue_depth{model="m1"} 0`,
		"parsvd_http_requests_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics output lacks %q:\n%s", want, text)
		}
	}
}

// TestCheckpointRestartRoundTrip proves the persistence loop: push, shut
// down (final checkpoint), boot a second server on the same directory,
// and find the model live with a bit-identical spectrum, still ingesting.
func TestCheckpointRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{CheckpointDir: dir, CheckpointInterval: time.Hour, Logf: func(string, ...any) {}}
	ctx := context.Background()

	srv1, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	c1 := client.New(ts1.URL)
	if _, err := c1.CreateModel(ctx, server.ModelSpec{Name: "persist", Modes: 3, ForgetFactor: 0.9}); err != nil {
		t.Fatal(err)
	}
	snaps := testMatrix(16, 12)
	if _, err := c1.Push(ctx, "persist", snaps.SliceCols(0, 8)); err != nil {
		t.Fatal(err)
	}
	before, err := c1.Spectrum(ctx, "persist")
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	if err := srv1.Close(); err != nil { // graceful shutdown writes the final checkpoint
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "persist.ckpt")); err != nil {
		t.Fatalf("no checkpoint written at shutdown: %v", err)
	}

	srv2, err := server.New(cfg) // restore-on-boot
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Close()
	c2 := client.New(ts2.URL)

	after, err := c2.Spectrum(ctx, "persist")
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Singular) != len(before.Singular) {
		t.Fatalf("restored spectrum length %d, want %d", len(after.Singular), len(before.Singular))
	}
	for i := range before.Singular {
		if after.Singular[i] != before.Singular[i] {
			t.Fatalf("restored singular[%d] = %v, want bit-identical %v", i, after.Singular[i], before.Singular[i])
		}
	}
	info, err := c2.Model(ctx, "persist")
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats.Snapshots != 8 {
		t.Fatalf("restored snapshots = %d, want 8", info.Stats.Snapshots)
	}
	// The restored spec must echo the full configuration the checkpoint
	// carries, not just what Stats exposes.
	if info.Spec.Modes != 3 || info.Spec.ForgetFactor != 0.9 || info.Spec.Backend != "serial" {
		t.Fatalf("restored spec %+v, want modes=3 forget_factor=0.9 serial", info.Spec)
	}

	// The restored model keeps streaming.
	ack, err := c2.Push(ctx, "persist", snaps.SliceCols(8, 12))
	if err != nil {
		t.Fatal(err)
	}
	if ack.Snapshots != 12 {
		t.Fatalf("snapshots after restored push = %d, want 12", ack.Snapshots)
	}
}

// TestCorruptCheckpointQuarantined: one bad checkpoint must not take the
// whole server down — it is renamed out of the way and every healthy
// model still restores.
func TestCorruptCheckpointQuarantined(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{CheckpointDir: dir, CheckpointInterval: time.Hour, Logf: func(string, ...any) {}}
	ctx := context.Background()

	srv1, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	c1 := client.New(ts1.URL)
	if _, err := c1.CreateModel(ctx, server.ModelSpec{Name: "good", Modes: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Push(ctx, "good", testMatrix(8, 4)); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "broken.ckpt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, err := server.New(cfg)
	if err != nil {
		t.Fatalf("one corrupt checkpoint failed the whole boot: %v", err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	c2 := client.New(ts2.URL)
	models, err := c2.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Spec.Name != "good" {
		t.Fatalf("restored models %+v, want just [good]", models)
	}
	if _, err := os.Stat(filepath.Join(dir, "broken.ckpt.bad")); err != nil {
		t.Fatalf("corrupt checkpoint was not quarantined: %v", err)
	}
}

// TestDeleteRemovesCheckpoint: deleting a model must also delete its
// checkpoint so it cannot resurrect on the next boot.
func TestDeleteRemovesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{CheckpointDir: dir, CheckpointInterval: 5 * time.Millisecond, Logf: func(string, ...any) {}}
	ctx := context.Background()
	c := boot(t, cfg)
	if _, err := c.CreateModel(ctx, server.ModelSpec{Name: "gone", Modes: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push(ctx, "gone", testMatrix(8, 4)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "gone.ckpt")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic checkpoint never appeared")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := c.DeleteModel(ctx, "gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("checkpoint survives model deletion: %v", err)
	}
}

// TestCreateAfterClose: a closed server refuses new models (503) instead
// of leaking an ingest loop that no Close will ever flush.
func TestCreateAfterClose(t *testing.T) {
	srv, err := server.New(server.Config{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = c.CreateModel(ctx, server.ModelSpec{Name: "late", Modes: 2})
	wantStatus(t, err, http.StatusServiceUnavailable)
	if err := srv.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestOversizedBody: a push beyond MaxBodyBytes is refused with 413, as
// a binary body and as JSON.
func TestOversizedBody(t *testing.T) {
	c := boot(t, server.Config{MaxBodyBytes: 1024})
	ctx := context.Background()
	if _, err := c.CreateModel(ctx, server.ModelSpec{Name: "small", Modes: 2}); err != nil {
		t.Fatal(err)
	}
	_, err := c.Push(ctx, "small", testMatrix(64, 64))
	wantStatus(t, err, http.StatusRequestEntityTooLarge)
	body, err := json.Marshal(server.NewMatrixJSON(testMatrix(64, 64)))
	if err != nil {
		t.Fatal(err)
	}
	if code, _, msg := post(t, c.BaseURL+"/v1/models/small/push", "application/json", "", bytes.NewReader(body)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize JSON push: HTTP %d (%s), want 413", code, msg)
	}
}

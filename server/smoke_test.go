package server_test

import (
	"context"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	parsvd "goparsvd"
	"goparsvd/server"
	"goparsvd/server/client"
)

// TestServeSmoke is the serving gate: boot the
// server on a random loopback port, create a model matching the
// deterministic benchmark workload, stream the FromWorkload batches at it
// through the typed client, and require the served spectrum to match an
// in-process serial Fit of the same workload within 1e-12.
func TestServeSmoke(t *testing.T) {
	ctx := context.Background()
	w := parsvd.DefaultWorkload()

	// In-process reference: the facade fits the workload directly.
	refOpts := []parsvd.Option{
		parsvd.WithModes(w.K),
		parsvd.WithForgetFactor(w.FF),
	}
	ref, err := parsvd.New(refOpts...)
	if err != nil {
		t.Fatal(err)
	}
	refSrc, err := parsvd.FromWorkload(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Fit(ctx, refSrc)
	if err != nil {
		t.Fatal(err)
	}

	// Server on a random port, fed the identical batches over HTTP.
	srv, err := server.New(server.Config{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer func() {
		httpSrv.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	}()

	c := client.New("http://" + ln.Addr().String())
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateModel(ctx, server.ModelSpec{
		Name:         "smoke",
		Modes:        w.K,
		ForgetFactor: w.FF,
	}); err != nil {
		t.Fatal(err)
	}

	src, err := parsvd.FromWorkload(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ack server.PushAck
	for {
		b, err := src.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ack, err = c.Push(ctx, "smoke", b); err != nil {
			t.Fatal(err)
		}
	}
	if ack.Snapshots != w.Snapshots {
		t.Fatalf("server ingested %d snapshots, want %d", ack.Snapshots, w.Snapshots)
	}

	got, err := c.Spectrum(ctx, "smoke")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Singular) != len(want.Singular) {
		t.Fatalf("served spectrum has %d values, want %d", len(got.Singular), len(want.Singular))
	}
	var maxDiff float64
	for i := range want.Singular {
		if d := math.Abs(got.Singular[i] - want.Singular[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-12 {
		t.Fatalf("served spectrum deviates from the in-process run by %g, want <= 1e-12", maxDiff)
	}
	t.Logf("serve-smoke: %d snapshots over HTTP, spectrum max deviation %g", ack.Snapshots, maxDiff)
}

// TestServeSmokeDistributed is the distributed half of the serving gate:
// a model created through POST /v1/models with backend "distributed"
// spawns a persistent 2-process worker fleet on its first HTTP push,
// every batch of real snapshot data crosses HTTP and then the worker
// wire, and the served spectrum must still match an in-process serial
// run of the identical stream within 1e-12. The model checkpoints like
// any other: Close gathers the fleet's state into <dir>/<name>.ckpt.
func TestServeSmokeDistributed(t *testing.T) {
	const ranks = 2
	ctx := context.Background()
	w := parsvd.DefaultWorkload()
	w.RowsPerRank = 64
	w.Snapshots = 48
	w.InitBatch = 12
	w.Batch = 12
	w.K = 6

	// In-process serial reference over the identical batches.
	ref, err := parsvd.New(parsvd.WithModes(w.K), parsvd.WithForgetFactor(w.FF))
	if err != nil {
		t.Fatal(err)
	}
	refSrc, err := parsvd.FromWorkload(w, ranks)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Fit(ctx, refSrc)
	if err != nil {
		t.Fatal(err)
	}

	ckptDir := t.TempDir()
	srv, err := server.New(server.Config{Logf: func(string, ...any) {}, CheckpointDir: ckptDir})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()

	c := client.New("http://" + ln.Addr().String())
	if _, err := c.CreateModel(ctx, server.ModelSpec{
		Name:         "dist-smoke",
		Modes:        w.K,
		ForgetFactor: w.FF,
		Backend:      "distributed",
		Ranks:        ranks,
	}); err != nil {
		t.Fatal(err)
	}

	src, err := parsvd.FromWorkload(w, ranks)
	if err != nil {
		t.Fatal(err)
	}
	for {
		b, err := src.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Push(ctx, "dist-smoke", b); err != nil {
			t.Fatal(err)
		}
	}

	got, err := c.Spectrum(ctx, "dist-smoke")
	if err != nil {
		t.Fatal(err)
	}
	if got.ModesSHA256 == "" {
		t.Fatal("served distributed spectrum carries no modes fingerprint")
	}
	if len(got.Singular) != len(want.Singular) {
		t.Fatalf("served spectrum has %d values, want %d", len(got.Singular), len(want.Singular))
	}
	var maxDiff float64
	for i := range want.Singular {
		if d := math.Abs(got.Singular[i] - want.Singular[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-12 {
		t.Fatalf("served distributed spectrum deviates from the serial run by %g, want <= 1e-12", maxDiff)
	}
	info, err := c.Model(ctx, "dist-smoke")
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats.Backend != "distributed" || info.Stats.Ranks != ranks ||
		info.Stats.Rows != w.RowsPerRank*ranks || info.Stats.Snapshots != w.Snapshots ||
		info.Stats.Messages == 0 || info.Stats.Bytes == 0 {
		t.Fatalf("served distributed stats incomplete: %+v", info.Stats)
	}

	// The modes matrix itself is not servable — only its fingerprint.
	if _, _, err := c.Modes(ctx, "dist-smoke"); err == nil {
		t.Fatal("modes of a distributed model did not error")
	}

	// Graceful shutdown gathers the fleet's state into a checkpoint that
	// restores (serially) with the spectrum intact.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(ckptDir, "dist-smoke.ckpt"))
	if err != nil {
		t.Fatalf("no checkpoint written for the distributed model: %v", err)
	}
	defer f.Close()
	restored, err := parsvd.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := restored.Result()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Singular {
		if d := math.Abs(res.Singular[i] - got.Singular[i]); d > 0 {
			t.Fatalf("restored checkpoint spectrum differs from the served one at mode %d", i)
		}
	}
	t.Logf("dist-serve-smoke: %d snapshots over HTTP into a %d-rank fleet, max deviation %g", w.Snapshots, ranks, maxDiff)
}

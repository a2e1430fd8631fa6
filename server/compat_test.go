package server_test

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"goparsvd/server"
)

// initRankSpec is a create spec as clients sent it while it still carried
// "init_rank", APMOS's gather truncation, which no engine reads any more.
func initRankSpec(name string) string {
	return fmt.Sprintf(`{"name":%q,"modes":4,"forget_factor":0.95,"init_rank":12}`, name)
}

// TestRetiredInitRankStillLoads: a JSON create body and an on-disk
// .spec.json that carry "init_rank" still create and restore their models,
// which fit exactly as models created without it.
func TestRetiredInitRankStillLoads(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	// A model whose spec file an older server wrote, before this boot.
	if err := os.WriteFile(filepath.Join(dir, "disk.spec.json"), []byte(initRankSpec("disk")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := bootCrashable(t, server.Config{CheckpointDir: dir, CheckpointInterval: time.Hour,
		Logf: func(string, ...any) {}})
	defer func() {
		s.ts.Close()
		if err := s.srv.Close(); err != nil {
			t.Error(err)
		}
	}()

	resp, err := http.Post(s.ts.URL+"/v1/models", "application/json", strings.NewReader(initRankSpec("body")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create with init_rank: status %d, want %d", resp.StatusCode, http.StatusCreated)
	}
	if _, err := s.c.CreateModel(ctx, server.ModelSpec{Name: "plain", Modes: 4, ForgetFactor: 0.95}); err != nil {
		t.Fatal(err)
	}

	a := testMatrix(30, 12)
	var want []float64
	for _, name := range []string{"plain", "body", "disk"} {
		for off := 0; off < 12; off += 4 {
			if _, err := s.c.Push(ctx, name, a.SliceCols(off, off+4)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		sp, err := s.c.Spectrum(ctx, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want == nil {
			want = sp.Singular
		} else if !slices.Equal(sp.Singular, want) {
			t.Errorf("%s: spectrum %v, the model created without init_rank %v", name, sp.Singular, want)
		}
	}
}

package server

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileDurably: the durable writer behind checkpoints and spec
// files replaces its target whole, and leaves no temporary file behind
// when it succeeds, when the content fails to write, or when the rename
// fails.
func TestWriteFileDurably(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.ckpt")
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	noTmp := func(path string) {
		t.Helper()
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s.tmp left behind (stat: %v)", path, err)
		}
	}
	if err := writeFileDurably(path, write("old")); err != nil {
		t.Fatal(err)
	}
	noTmp(path)

	failed := errors.New("encoder failed")
	err := writeFileDurably(path, func(w io.Writer) error {
		io.WriteString(w, "torn")
		return failed
	})
	if !errors.Is(err, failed) {
		t.Fatalf("failed write returned %v, want %v", err, failed)
	}
	noTmp(path)
	if b, err := os.ReadFile(path); err != nil || string(b) != "old" {
		t.Fatalf("after a failed write the file reads %q (%v), want the old content", b, err)
	}

	// A non-empty directory in the target's place makes the rename fail.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeFileDurably(blocked, write("new")); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	noTmp(blocked)
}

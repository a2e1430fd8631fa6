// Package launch spawns and supervises multi-process TCP runs of the
// distributed streaming SVD: a persistent fleet of cmd/parsvd-worker
// processes, one OS process per rank, wired together by the tcptransport
// rendezvous and driven over the framed session protocol (proto.go).
//
// StartSession spawns the fleet and sends every rank its engine
// configuration; the returned Session scatters snapshot row blocks to the
// workers over their stdin and reads spectra, mode fingerprints and
// checkpoints back over their stdout. Everything else a worker writes
// (logs) goes to stderr and is passed through.
package launch

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// WorkerEnv names the environment variable that overrides worker binary
// resolution.
const WorkerEnv = "PARSVD_WORKER"

// buildOnce caches the go-build fallback so a test suite spawning many
// worlds compiles the worker a single time per process.
var buildOnce struct {
	sync.Mutex
	path string
	err  error
}

// ResolveWorker locates the parsvd-worker binary: the PARSVD_WORKER env
// var, a sibling of the current executable, PATH, and finally — inside a
// module checkout with a Go toolchain — a cached `go build` into a temp
// directory.
func ResolveWorker() (string, error) {
	if p := os.Getenv(WorkerEnv); p != "" {
		if _, err := os.Stat(p); err != nil {
			return "", fmt.Errorf("launch: $%s = %q: %w", WorkerEnv, p, err)
		}
		return p, nil
	}
	if exe, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(exe), "parsvd-worker")
		if info, err := os.Stat(sibling); err == nil && !info.IsDir() {
			return sibling, nil
		}
	}
	if p, err := exec.LookPath("parsvd-worker"); err == nil {
		return p, nil
	}
	return buildWorker()
}

func buildWorker() (string, error) {
	buildOnce.Lock()
	defer buildOnce.Unlock()
	if buildOnce.path != "" || buildOnce.err != nil {
		return buildOnce.path, buildOnce.err
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		buildOnce.err = fmt.Errorf("launch: parsvd-worker not found and no Go toolchain to build it: %w", err)
		return "", buildOnce.err
	}
	modRoot, err := moduleRoot(goBin)
	if err != nil {
		buildOnce.err = err
		return "", buildOnce.err
	}
	dir, err := os.MkdirTemp("", "parsvd-worker-*")
	if err != nil {
		buildOnce.err = err
		return "", buildOnce.err
	}
	out := filepath.Join(dir, "parsvd-worker")
	cmd := exec.Command(goBin, "build", "-o", out, "./cmd/parsvd-worker")
	cmd.Dir = modRoot
	if msg, err := cmd.CombinedOutput(); err != nil {
		buildOnce.err = fmt.Errorf("launch: building parsvd-worker: %v\n%s", err, msg)
		return "", buildOnce.err
	}
	buildOnce.path = out
	return out, nil
}

func moduleRoot(goBin string) (string, error) {
	cmd := exec.Command(goBin, "env", "GOMOD")
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("launch: go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("launch: not inside a module checkout; install parsvd-worker or set $%s", WorkerEnv)
	}
	return filepath.Dir(gomod), nil
}

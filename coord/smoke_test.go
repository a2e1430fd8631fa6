package coord_test

// The cross-node coordinator gate: three REAL parsvd-serve
// processes on kernel-picked ports, a 6-shard coordinated fit over the
// deterministic FromWorkload stream — once driven by the parsvd-coord
// binary end to end (merged checkpoint written to disk and verified),
// once through the library with one serve process SIGKILLed mid-stream
// so the failover/refit path runs against a genuinely dead process.
// Both must land ≤ 1e-10 of the monolithic serial fit.

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	parsvd "goparsvd"
	"goparsvd/coord"
	"goparsvd/server"
	"goparsvd/server/client"
)

// smokeWorkload is the exactness configuration of the deterministic
// Burgers workload: forget factor 1.0 and K = Snapshots, so the shard
// reduce is exact and the ≤1e-10 gate applies. 2-column batches give 12
// batches — two per shard.
func smokeWorkload() parsvd.Workload {
	w := parsvd.DefaultWorkload()
	w.RowsPerRank = 64
	w.Snapshots = 24
	w.InitBatch = 2
	w.Batch = 2
	w.K = 24
	w.FF = 1.0
	return w
}

// buildBinsOnce caches the parsvd-serve and parsvd-coord binaries: one
// `go build` each per test process.
var buildBinsOnce struct {
	sync.Once
	serve, coordBin string
	err             error
}

func buildBins(t *testing.T) (serve, coordBin string) {
	t.Helper()
	buildBinsOnce.Do(func() {
		goBin, err := exec.LookPath("go")
		if err != nil {
			buildBinsOnce.err = fmt.Errorf("no Go toolchain: %w", err)
			return
		}
		dir, err := os.MkdirTemp("", "parsvd-coord-smoke-*")
		if err != nil {
			buildBinsOnce.err = err
			return
		}
		for _, b := range []struct{ out, pkg string }{
			{"parsvd-serve", "goparsvd/cmd/parsvd-serve"},
			{"parsvd-coord", "goparsvd/cmd/parsvd-coord"},
		} {
			out := filepath.Join(dir, b.out)
			cmd := exec.Command(goBin, "build", "-o", out, b.pkg)
			if msg, err := cmd.CombinedOutput(); err != nil {
				buildBinsOnce.err = fmt.Errorf("building %s: %v\n%s", b.pkg, err, msg)
				return
			}
		}
		buildBinsOnce.serve = filepath.Join(dir, "parsvd-serve")
		buildBinsOnce.coordBin = filepath.Join(dir, "parsvd-coord")
	})
	if buildBinsOnce.err != nil {
		t.Fatal(buildBinsOnce.err)
	}
	return buildBinsOnce.serve, buildBinsOnce.coordBin
}

// serveProc is one real parsvd-serve process.
type serveProc struct {
	cmd  *exec.Cmd
	addr string
}

// startServe launches parsvd-serve on a kernel-picked port and parses
// the bound address from its log output.
func startServe(t *testing.T, bin string) *serveProc {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("serve: %s", line)
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrCh <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &serveProc{cmd: cmd, addr: addr}
	case <-time.After(30 * time.Second):
		t.Fatal("parsvd-serve never reported its listen address")
		return nil
	}
}

// sigkill is the crash: kill -9, no flush, no goodbye.
func (p *serveProc) sigkill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait()
}

func startNodes(t *testing.T, bin string, n int) ([]string, []*serveProc) {
	t.Helper()
	urls := make([]string, n)
	procs := make([]*serveProc, n)
	for i := range procs {
		procs[i] = startServe(t, bin)
		urls[i] = "http://" + procs[i].addr
	}
	return urls, procs
}

// smokeMonolithic is the ground truth: one local serial fit over the
// same deterministic stream the coordinator deals (ranks = 1, matching
// the parsvd-coord binary's FromWorkload).
func smokeMonolithic(t *testing.T) []float64 {
	t.Helper()
	w := smokeWorkload()
	svd, err := parsvd.New(parsvd.WithModes(w.K))
	if err != nil {
		t.Fatal(err)
	}
	defer svd.Close()
	src, err := parsvd.FromWorkload(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svd.Fit(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	return res.Singular
}

// TestCoordSmokeBinary drives the parsvd-coord BINARY against three
// real parsvd-serve processes: 6 shards over the deterministic
// workload, merged checkpoint written to disk, loaded back and held to
// ≤ 1e-10 of the monolithic serial fit.
func TestCoordSmokeBinary(t *testing.T) {
	serveBin, coordBin := buildBins(t)
	urls, _ := startNodes(t, serveBin, 3)
	w := smokeWorkload()

	out := filepath.Join(t.TempDir(), "merged.ckpt")
	cmd := exec.Command(coordBin,
		"-nodes", strings.Join(urls, ","),
		"-shards", "6",
		"-model", "smoke",
		"-workload",
		"-rows", fmt.Sprint(w.RowsPerRank),
		"-snapshots", fmt.Sprint(w.Snapshots),
		"-modes", fmt.Sprint(w.K),
		"-ff", "1",
		"-init-batch", fmt.Sprint(w.InitBatch),
		"-batch", fmt.Sprint(w.Batch),
		"-q",
		"-o", out,
	)
	msg, err := cmd.CombinedOutput()
	t.Logf("parsvd-coord:\n%s", msg)
	if err != nil {
		t.Fatalf("parsvd-coord: %v", err)
	}

	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := parsvd.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	res, err := merged.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.Stats().Snapshots; got != w.Snapshots {
		t.Fatalf("merged model holds %d snapshots, want %d", got, w.Snapshots)
	}
	if d := maxDiff(t, res.Singular, smokeMonolithic(t)); d > coordTolerance {
		t.Errorf("binary-run spectrum deviates from monolithic by %g, want <= %g", d, coordTolerance)
	}
}

// TestCoordSmokeSIGKILL runs the same 6-shard coordinated fit with one
// serve PROCESS SIGKILLed between two batches it had already acked: the
// coordinator must refit the dead node's shards on the survivors from
// the Replay source and still meet the gate.
func TestCoordSmokeSIGKILL(t *testing.T) {
	serveBin, _ := buildBins(t)
	urls, procs := startNodes(t, serveBin, 3)
	w := smokeWorkload()
	replay := func() (parsvd.Source, error) { return parsvd.FromWorkload(w, 1) }

	inner, err := replay()
	if err != nil {
		t.Fatal(err)
	}
	served, killed := 0, false
	src := parsvd.FromBatches(func() (*parsvd.Matrix, error) {
		if served == 5 && !killed {
			killed = true
			procs[0].sigkill(t)
		}
		b, err := inner.Next(context.Background())
		if err != nil {
			return nil, err
		}
		served++
		return b, nil
	})

	c, err := coord.New(coord.Config{
		Nodes:  urls,
		Shards: 6,
		Model:  "smokekill",
		Spec:   server.ModelSpec{Modes: w.K, ForgetFactor: w.FF},
		Replay: replay,
		Retry:  client.RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond},
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := c.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	if !killed {
		t.Fatal("SIGKILL never fired: stream shorter than expected")
	}
	res, err := merged.Result()
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(t, res.Singular, smokeMonolithic(t)); d > coordTolerance {
		t.Errorf("post-SIGKILL spectrum deviates from monolithic by %g, want <= %g", d, coordTolerance)
	}
}

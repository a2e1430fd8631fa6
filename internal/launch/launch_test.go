package launch

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"os/exec"
	"strings"
	"testing"

	"goparsvd/internal/grid"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi/tcptransport"
	"goparsvd/internal/testutil"
)

// testWorker resolves the parsvd-worker binary, skipping without a Go
// toolchain to build it.
func testWorker(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("no Go toolchain to build parsvd-worker: %v", err)
	}
	bin, err := ResolveWorker()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// equalFloatsBits compares two float64 slices for exact bit equality
// (NaNs included).
func equalFloatsBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestWorkerFailurePropagates starts a lone rank 0 of a two-rank world:
// no peer ever dials in, so the worker must give up after its dial
// timeout, exit nonzero and leave an ERR frame as the last thing on its
// stdout, which is how a launcher learns why a rank died.
func TestWorkerFailurePropagates(t *testing.T) {
	bin := testWorker(t)
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-rank", "0", "-np", "2", "-dial-timeout", "2s", "-k", "2", "-ff", "1")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err == nil {
		t.Fatalf("lone rank 0 of a 2-rank world exited cleanly:\n%s", stderr.Bytes())
	}
	var verbs []byte
	var last []byte
	for {
		verb, body, err := tcptransport.ReadFrame(&stdout)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("worker stdout after frames %v is not a frame stream: %v", verbs, err)
		}
		verbs = append(verbs, verb)
		last = body
	}
	if len(verbs) == 0 || verbs[len(verbs)-1] != SessErr {
		t.Fatalf("worker stdout frames %v do not end with ERR", verbs)
	}
	t.Logf("ERR frame: %s", last)
}

// TestWorkerRefusesBadSpec: a worker validates the engine spec on its
// command line before it joins any mesh, so a spec core.Options.Validate
// refuses gets exactly one frame on stdout, an ERR naming the field, and a
// nonzero exit — rank 0 of a hand-started pair would otherwise print
// RENDEZVOUS first. A launched fleet with that spec starts (StartSession
// only spawns), and its first Push fails with the same text.
func TestWorkerRefusesBadSpec(t *testing.T) {
	bin := testWorker(t)
	batch := testutil.RandomDense(8, 2, testutil.NewRand(6))
	for _, c := range []struct {
		name string
		spec EngineSpec
		want string
	}{
		{"K < 1", EngineSpec{FF: 1}, "stream: K = 0 < 1"},
		{"ff 0", EngineSpec{K: 2}, "stream: forget factor 0 outside (0, 1]"},
		{"ff > 1", EngineSpec{K: 2, FF: 1.5}, "stream: forget factor 1.5 outside (0, 1]"},
		{"ff NaN", EngineSpec{K: 2, FF: math.NaN()}, "stream: forget factor NaN outside (0, 1]"},
		{"oversample < 0", EngineSpec{K: 2, FF: 1, LowRank: true, Oversample: -3}, "rla: Oversample = -3 < 0"},
		{"power iters < 0", EngineSpec{K: 2, FF: 1, PowerIters: -1}, "rla: PowerIters = -1 < 0"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout bytes.Buffer
			cmd := exec.Command(bin, append([]string{"-rank", "0", "-np", "2", "-dial-timeout", "2s"}, c.spec.Args()...)...)
			cmd.Stdout = &stdout
			if err := cmd.Run(); err == nil {
				t.Fatal("worker with a bad spec exited cleanly")
			}
			verb, body, err := tcptransport.ReadFrame(&stdout)
			if err != nil || verb != SessErr || !strings.Contains(string(body), c.want) {
				t.Fatalf("first frame %s %q (err %v), want ERR naming %q", verbName(verb), body, err, c.want)
			}
			if stdout.Len() != 0 {
				t.Fatalf("%d bytes follow the ERR frame", stdout.Len())
			}

			s, err := StartSession(SessionConfig{Ranks: 2, WorkerBin: bin, Spec: c.spec, Stderr: io.Discard})
			if err != nil {
				t.Fatalf("StartSession: %v", err)
			}
			defer s.Close()
			if err := s.Push(batch); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("first Push: %v, want the worker's %q", err, c.want)
			}
			if s.Failed() == nil {
				t.Fatal("a fleet that refused its spec left the session healthy")
			}
		})
	}
}

// TestHandStartedWorldMatchesSession keeps the hand-started path tested,
// the README's cross-machine recipe that launched fleets no longer take on
// unix: both ranks get the engine spec as flags (EngineSpec.Args), rank 0
// started with -listen prints a RENDEZVOUS frame, rank 1 dials that
// address with -rendezvous, and the pair driven frame by frame — PUSH
// first, there is no configuration frame — must reach the spectrum bits
// and modes hash a StartSession fleet reaches on the same batches.
func TestHandStartedWorldMatchesSession(t *testing.T) {
	const ranks, rows, cols = 2, 40, 6
	bin := testWorker(t)
	spec := EngineSpec{K: 4, FF: 0.9}
	rng := testutil.NewRand(21)
	batches := make([]*mat.Dense, 3)
	for i := range batches {
		batches[i] = testutil.RandomDense(rows, cols, rng)
	}

	s, err := StartSession(SessionConfig{Ranks: ranks, WorkerBin: bin, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, b := range batches {
		if err := s.Push(b); err != nil {
			t.Fatal(err)
		}
	}
	wantSHA, wantSpectrum, err := s.ModesSHA()
	if err != nil {
		t.Fatal(err)
	}

	type proc struct {
		cmd *exec.Cmd
		in  io.WriteCloser
		out *bufio.Reader
	}
	start := func(args ...string) *proc {
		cmd := exec.Command(bin, append(args, spec.Args()...)...)
		in, err := cmd.StdinPipe()
		if err != nil {
			t.Fatal(err)
		}
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		return &proc{cmd, in, bufio.NewReader(out)}
	}
	p0 := start("-rank", "0", "-np", "2", "-listen", "127.0.0.1:0")
	verb, addr, err := tcptransport.ReadFrame(p0.out)
	if err != nil || verb != SessRendezvous {
		t.Fatalf("rank 0's first frame: %s %q, err %v; want RENDEZVOUS", verbName(verb), addr, err)
	}
	procs := []*proc{p0, start("-rank", "1", "-np", "2", "-rendezvous", string(addr))}

	// roundTrip writes one command to every rank, then reads one reply
	// from each. The frames are small enough to sit whole in the pipes,
	// so writing rank by rank cannot stall a collective.
	roundTrip := func(verb byte, write func(r int, in io.Writer) error) [][]byte {
		t.Helper()
		for r, p := range procs {
			if err := write(r, p.in); err != nil {
				t.Fatalf("%s to rank %d: %v", verbName(verb), r, err)
			}
		}
		bodies := make([][]byte, len(procs))
		for r, p := range procs {
			rv, body, err := tcptransport.ReadFrame(p.out)
			if err != nil || rv == SessErr {
				t.Fatalf("rank %d reply to %s: %s %q, err %v", r, verbName(verb), verbName(rv), body, err)
			}
			bodies[r] = body
		}
		return bodies
	}
	empty := func(verb byte) func(int, io.Writer) error {
		return func(_ int, in io.Writer) error { return tcptransport.WriteFrame(in, verb, nil) }
	}

	parts := grid.Partition(rows, ranks)
	scratch := make([]byte, blockScratch)
	for _, b := range batches {
		roundTrip(SessPush, func(r int, in io.Writer) error {
			var block mat.Dense
			b.ViewRows(parts[r].Start, parts[r].End, &block)
			return writeBlockFrame(in, scratch, &block)
		})
	}
	st, err := DecodeStatus(roundTrip(SessModesSHA, empty(SessModesSHA))[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.ModesSHA != wantSHA {
		t.Errorf("modes hash %s, launched fleet %s", st.ModesSHA, wantSHA)
	}
	if got := st.Spectrum(); !equalFloatsBits(got, wantSpectrum) {
		t.Errorf("spectrum %v, launched fleet %v", got, wantSpectrum)
	}
	roundTrip(SessShutdown, empty(SessShutdown))
	for r, p := range procs {
		if err := p.cmd.Wait(); err != nil {
			t.Errorf("rank %d after SHUTDOWN: %v", r, err)
		}
	}
}

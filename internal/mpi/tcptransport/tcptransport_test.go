package tcptransport_test

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/mpi/tcptransport"
	"goparsvd/internal/mpi/transporttest"
	"goparsvd/internal/tsqr"
)

// runTCP adapts tcptransport.Run to the conformance Runner signature with
// test-friendly timeouts.
func runTCP(size int, fn func(c *mpi.Comm)) error {
	_, err := tcptransport.Run(size, testOptions(), fn)
	return err
}

// namedRunner is one way of wiring a world, as a conformance Runner.
type namedRunner struct {
	name string
	run  transporttest.Runner
}

// runners are the ways of wiring a world every forEachWorld test runs
// over; peers_unix_test.go adds the socketpair world.
var runners = []namedRunner{{"rendezvous", runTCP}}

// forEachWorld runs body once per way of wiring a world.
func forEachWorld(t *testing.T, body func(t *testing.T, run transporttest.Runner)) {
	for _, w := range runners {
		t.Run(w.name, func(t *testing.T) { body(t, w.run) })
	}
}

func testOptions() tcptransport.Options {
	return tcptransport.Options{
		DialTimeout: 10 * time.Second,
		IdleTimeout: 30 * time.Second,
	}
}

// TestTCPTransportRoundTrip runs the shared transport-conformance suite
// over real loopback sockets.
func TestTCPTransportRoundTrip(t *testing.T) {
	transporttest.RoundTrip(t, runTCP)
}

// TestTCPTransportInto runs the receive-into conformance suite over real
// loopback sockets, where payloads are decoded into recycled storage.
func TestTCPTransportInto(t *testing.T) {
	transporttest.Into(t, runTCP)
}

// TestTCPCollectives exercises the full collective surface — broadcast,
// gather, scatter, reductions, allgather — over the TCP fabric. These are
// the exact calls core.Parallel makes, so passing here means the SVD
// pipeline is transport-clean.
func TestTCPCollectives(t *testing.T) {
	forEachWorld(t, testCollectives)
}

func testCollectives(t *testing.T, run transporttest.Runner) {
	const p = 4
	err := run(p, func(c *mpi.Comm) {
		// Bcast from a non-zero root.
		got := must1(c.BcastFloatsInto(2, pick(c.Rank() == 2, []float64{3, 1, 4}, nil)))
		if len(got) != 3 || got[0] != 3 || got[2] != 4 {
			t.Errorf("rank %d: BcastFloatsInto = %v", c.Rank(), got)
		}
		// Gather ragged contributions at root: rank r sends r+1 rows of r.
		mine := mat.New(c.Rank()+1, 1)
		mine.Fill(float64(c.Rank()))
		var g []*mat.Dense
		if c.Rank() == 0 {
			g = []*mat.Dense{mine, new(mat.Dense), new(mat.Dense), new(mat.Dense)}
		}
		must(c.GatherMatrixViews(0, mine, g))
		// Allreduce as gather plus broadcast: every rank gets the sum.
		var sum []float64
		if c.Rank() == 0 {
			sum = []float64{0}
			for r := 0; r < p; r++ {
				if g[r].Rows() != r+1 || g[r].At(r, 0) != float64(r) {
					t.Errorf("gather[%d] = %v", r, g[r])
				}
				sum[0] += g[r].At(0, 0)
			}
		}
		if sum = must1(c.BcastFloatsInto(0, sum)); len(sum) != 1 || sum[0] != 0+1+2+3 {
			t.Errorf("rank %d: gathered sum = %v", c.Rank(), sum)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPBarrierOrdering verifies the centralized barrier has full-barrier
// semantics: no rank proceeds before every rank has entered.
func TestTCPBarrierOrdering(t *testing.T) {
	var before, after atomic.Int32
	err := runTCP(4, func(c *mpi.Comm) {
		for i := 0; i < 5; i++ { // reusable across generations
			before.Add(1)
			must(c.Barrier())
			if got := before.Load(); got < int32(4*(i+1)) {
				t.Errorf("rank %d passed barrier %d with before=%d", c.Rank(), i, got)
			}
			must(c.Barrier())
			after.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if after.Load() != 20 {
		t.Fatalf("after = %d, want 20", after.Load())
	}
}

// TestTCPPanicAbortsPeers injects a rank failure mid-collective and
// requires the whole world to unwind: the panic is attributed to the
// failing rank and the peers blocked in a gather or a barrier return
// ErrAborted instead of hanging.
func TestTCPPanicAbortsPeers(t *testing.T) {
	forEachWorld(t, func(t *testing.T, run transporttest.Runner) {
		done := make(chan error, 1)
		go func() {
			done <- run(4, func(c *mpi.Comm) {
				if c.Rank() == 2 {
					panic("rank 2 failed before contributing")
				}
				// Root blocks on rank 2 until the abort.
				err := c.GatherMatrixViews(0, mat.Eye(1), []*mat.Dense{nil, new(mat.Dense), new(mat.Dense), new(mat.Dense)})
				if err == nil {
					err = c.Barrier()
				}
				if !errors.Is(err, mpi.ErrAborted) {
					t.Errorf("rank %d: %v, want ErrAborted", c.Rank(), err)
				}
			})
		}()
		select {
		case err := <-done:
			re := new(mpi.RankError)
			if !errors.As(err, &re) || re.Rank != 2 {
				t.Fatalf("err = %v, want RankError from rank 2", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("abort propagation deadlocked")
		}
	})
}

// TestTCPTrafficCounters checks the aggregated counters match the payload
// actually shipped (one 2×5 matrix = 80 bytes).
func TestTCPTrafficCounters(t *testing.T) {
	stats, err := tcptransport.Run(2, testOptions(), func(c *mpi.Comm) {
		if c.Rank() == 0 {
			must(c.SendMatrix(1, 0, mat.New(2, 5)))
		} else {
			must(c.RecvMatrixInto(0, 0, new(mat.Dense)))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 1 || stats.Bytes != 80 {
		t.Fatalf("stats = %+v, want 1 message / 80 bytes", stats)
	}
	if stats.RecvBytes[1] != 80 || stats.RecvBytes[0] != 0 {
		t.Fatalf("RecvBytes = %v, want [0 80]", stats.RecvBytes)
	}
}

// TestTCPGatherQRMatchesChan runs the paper's distributed QR (Listing 4)
// over both fabrics on identical inputs and requires bit-identical
// factors: the transport must be invisible to the numerics.
func TestTCPGatherQRMatchesChan(t *testing.T) {
	const p, rows, cols = 4, 32, 6
	blocks := make([]*mat.Dense, p)
	for r := range blocks {
		m := mat.New(rows, cols)
		raw := m.RawData()
		for i := range raw {
			raw[i] = math.Sin(float64(i+1) * float64(r+1) * 0.7)
		}
		blocks[r] = m
	}
	type result struct {
		q []*mat.Dense
		r *mat.Dense
	}
	collect := func(run transporttest.Runner) result {
		res := result{q: make([]*mat.Dense, p)}
		if err := run(p, func(c *mpi.Comm) {
			q, rf := tsqr.GatherQRWith(nil, c, blocks[c.Rank()].Clone())
			res.q[c.Rank()] = q
			if c.Rank() == 0 {
				res.r = rf
			}
		}); err != nil {
			t.Fatal(err)
		}
		return res
	}
	viaChan := collect(func(size int, fn func(c *mpi.Comm)) error {
		_, err := mpi.Run(size, fn)
		return err
	})
	forEachWorld(t, func(t *testing.T, run transporttest.Runner) {
		viaTCP := collect(run)
		for r := 0; r < p; r++ {
			if !bitsEqual(viaChan.q[r].RawData(), viaTCP.q[r].RawData()) {
				t.Errorf("rank %d: Q differs between chan and tcp transports", r)
			}
		}
		if !bitsEqual(viaChan.r.RawData(), viaTCP.r.RawData()) {
			t.Error("global R differs between chan and tcp transports")
		}
	})
}

func bitsEqual(a, b []float64) bool {
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

func pick[T any](cond bool, a, b T) T {
	if cond {
		return a
	}
	return b
}

// must panics with a failed call's error, which the runner reports as the
// calling rank's failure.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// must1 is must for a call that also returns a value.
func must1[T any](v T, err error) T {
	must(err)
	return v
}

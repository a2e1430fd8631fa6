package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"goparsvd/internal/mat"
)

// must panics with a failed call's error, which Run reports as the calling
// rank's failure.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// bcast is BcastFloatsInto for tests that only want the values.
func bcast(c *Comm, root int, data []float64) []float64 {
	out, err := c.BcastFloatsInto(root, data)
	must(err)
	return out
}

// gather is GatherMatrixViews into fresh views, with root's own matrix at
// its index; nil off root.
func gather(c *Comm, root int, m *mat.Dense) []*mat.Dense {
	var out []*mat.Dense
	if c.Rank() == root {
		out = make([]*mat.Dense, c.Size())
		for r := range out {
			out[r] = new(mat.Dense)
		}
		out[root] = m
	}
	must(c.GatherMatrixViews(root, m, out))
	return out
}

func TestRankAndSize(t *testing.T) {
	seen := make([]atomic.Bool, 5)
	MustRun(5, func(c *Comm) {
		if c.Size() != 5 {
			t.Errorf("Size() = %d, want 5", c.Size())
		}
		if seen[c.Rank()].Swap(true) {
			t.Errorf("rank %d ran twice", c.Rank())
		}
	})
	for r := range seen {
		if !seen[r].Load() {
			t.Fatalf("rank %d never ran", r)
		}
	}
}

// TestSendRecvVector: a vector frame between two ranks is a two-rank
// broadcast, the one call that carries vectors.
func TestSendRecvVector(t *testing.T) {
	MustRun(2, func(c *Comm) {
		var in []float64
		if c.Rank() == 0 {
			in = []float64{1, 2, 3}
		}
		if got := bcast(c, 0, in); len(got) != 3 || got[0] != 1 || got[2] != 3 {
			t.Errorf("rank %d: vector = %v", c.Rank(), got)
		}
	})
}

func TestSendCopies(t *testing.T) {
	MustRun(2, func(c *Comm) {
		if c.Rank() == 0 {
			buf := mat.NewFromData(1, 1, []float64{42})
			must(c.SendMatrix(1, 0, buf))
			buf.Set(0, 0, -1) // must not affect the in-flight message
			must(c.Barrier())
		} else {
			must(c.Barrier())
			var got mat.Dense
			must(c.RecvMatrixInto(0, 0, &got))
			if got.At(0, 0) != 42 {
				t.Errorf("message not copied on send: %v", got.RawData())
			}
		}
	})
}

func TestSendRecvMatrix(t *testing.T) {
	MustRun(2, func(c *Comm) {
		if c.Rank() == 0 {
			m := mat.NewFromRows([][]float64{{1, 2}, {3, 4}})
			must(c.SendMatrix(1, 3, m))
		} else {
			var got mat.Dense
			must(c.RecvMatrixInto(0, 3, &got))
			if got.Rows() != 2 || got.Cols() != 2 || got.At(1, 1) != 4 {
				t.Errorf("RecvMatrixInto = %v", got.RawData())
			}
		}
	})
}

// TestTagMismatchFails: a message of another tag is bytes from a peer that
// is not running the same protocol, so the receive returns an error naming
// both ranks and both tags.
func TestTagMismatchFails(t *testing.T) {
	MustRun(2, func(c *Comm) {
		if c.Rank() == 0 {
			must(c.SendMatrix(1, 1, mat.Eye(1)))
			return
		}
		var m mat.Dense
		err := c.RecvMatrixInto(0, 2, &m)
		if err == nil || !strings.Contains(err.Error(), "rank 1 expected tag 2 from rank 0, got 1") {
			t.Errorf("tag mismatch returned %v", err)
		}
	})
}

func TestSendToSelfPanics(t *testing.T) {
	_, err := Run(1, func(c *Comm) {
		c.SendMatrix(0, 0, mat.Eye(1))
	})
	if err == nil {
		t.Fatal("send-to-self should produce a rank error")
	}
}

func TestRankPanicAbortsPeers(t *testing.T) {
	// Rank 1 panics while rank 0 is blocked receiving from it; Run must not
	// deadlock, rank 0's receive returns ErrAborted, and Run reports rank
	// 1's panic.
	_, err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			var m mat.Dense
			if err := c.RecvMatrixInto(1, 0, &m); !errors.Is(err, ErrAborted) {
				t.Errorf("blocked receive returned %v, want ErrAborted", err)
			}
		} else {
			panic("deliberate failure")
		}
	})
	re, ok := err.(*RankError)
	if !ok {
		t.Fatalf("want *RankError, got %v", err)
	}
	if re.Rank != 1 {
		t.Fatalf("error attributed to rank %d, want 1", re.Rank)
	}
}

func TestBarrierOrdering(t *testing.T) {
	var before, after atomic.Int32
	MustRun(4, func(c *Comm) {
		before.Add(1)
		must(c.Barrier())
		// Every rank must have incremented before any rank proceeds.
		if got := before.Load(); got != 4 {
			t.Errorf("rank %d passed barrier with before=%d", c.Rank(), got)
		}
		after.Add(1)
	})
	if after.Load() != 4 {
		t.Fatal("not all ranks passed the barrier")
	}
}

func TestBarrierReusable(t *testing.T) {
	MustRun(3, func(c *Comm) {
		for i := 0; i < 10; i++ {
			must(c.Barrier())
		}
	})
}

func TestBcastFloats(t *testing.T) {
	for _, root := range []int{0, 1, 3} {
		MustRun(4, func(c *Comm) {
			var payload []float64
			if c.Rank() == root {
				payload = []float64{3.5, -1, float64(root)}
			}
			got := bcast(c, root, payload)
			if len(got) != 3 || got[0] != 3.5 || got[2] != float64(root) {
				t.Errorf("rank %d root %d: BcastFloatsInto = %v", c.Rank(), root, got)
			}
		})
	}
}

func TestBcastMatrix(t *testing.T) {
	want := mat.NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	MustRun(5, func(c *Comm) {
		got := new(mat.Dense)
		if c.Rank() == 2 {
			got = want.Clone()
		}
		must(c.BcastMatrixInto(2, got))
		if !mat.EqualApprox(got, want, 0) {
			t.Errorf("rank %d: BcastMatrixInto mismatch", c.Rank())
		}
		// Mutating the received matrix must not corrupt anyone else's.
		got.Set(0, 0, -99)
	})
	if want.At(0, 0) != 1 {
		t.Fatal("broadcast aliased the root's matrix")
	}
}

func TestBcastSingleRank(t *testing.T) {
	MustRun(1, func(c *Comm) {
		got := bcast(c, 0, []float64{7})
		if len(got) != 1 || got[0] != 7 {
			t.Errorf("single-rank bcast = %v", got)
		}
	})
}

func TestGatherMatrix(t *testing.T) {
	MustRun(3, func(c *Comm) {
		local := mat.NewFromRows([][]float64{{float64(c.Rank())}})
		out := gather(c, 0, local)
		if c.Rank() == 0 {
			for r := 0; r < 3; r++ {
				if out[r].At(0, 0) != float64(r) {
					t.Errorf("gathered[%d] = %v", r, out[r])
				}
			}
		} else if out != nil {
			t.Errorf("rank %d: non-root gather = %v", c.Rank(), out)
		}
	})
}

// TestGatherMatrixRootCopyIndependent: the views root gathers are the
// fabric's payloads, never the senders' own storage.
func TestGatherMatrixRootCopyIndependent(t *testing.T) {
	MustRun(2, func(c *Comm) {
		local := mat.NewFromRows([][]float64{{float64(c.Rank())}})
		out := gather(c, 0, local)
		if c.Rank() == 0 {
			out[1].Set(0, 0, 99)
		}
		must(c.Barrier())
		if c.Rank() == 1 && local.At(0, 0) != 1 {
			t.Error("root's gathered view aliases the sender's matrix")
		}
	})
}

func TestTrafficCounters(t *testing.T) {
	stats := MustRun(2, func(c *Comm) {
		if c.Rank() == 0 {
			must(c.SendMatrix(1, 0, mat.New(2, 5)))
		} else {
			var m mat.Dense
			must(c.RecvMatrixInto(0, 0, &m))
		}
	})
	if stats.Messages != 1 {
		t.Fatalf("Messages = %d, want 1", stats.Messages)
	}
	if stats.Bytes != 80 {
		t.Fatalf("Bytes = %d, want 80", stats.Bytes)
	}
	if stats.Ranks != 2 {
		t.Fatalf("Ranks = %d, want 2", stats.Ranks)
	}
}

func TestWorldSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0)
}

func TestManyRanksPipeline(t *testing.T) {
	// A ring pipeline: each rank forwards an accumulating sum.
	const p = 16
	MustRun(p, func(c *Comm) {
		r := c.Rank()
		var v mat.Dense
		switch {
		case r == 0:
			must(c.SendMatrix(1, 0, mat.New(1, 1)))
			must(c.RecvMatrixInto(p-1, 0, &v))
			want := float64(p * (p - 1) / 2)
			if v.At(0, 0) != want {
				t.Errorf("ring sum = %v, want %v", v.At(0, 0), want)
			}
		default:
			must(c.RecvMatrixInto(r-1, 0, &v))
			v.Set(0, 0, v.At(0, 0)+float64(r))
			must(c.SendMatrix((r+1)%p, 0, &v))
		}
	})
}

// Property: broadcast delivers identical content for every root and rank
// count.
func TestPropertyBcastAllRoots(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(9)
		root := rng.Intn(p)
		n := 1 + rng.Intn(30)
		payload := make([]float64, n)
		for i := range payload {
			payload[i] = rng.NormFloat64()
		}
		ok := atomic.Bool{}
		ok.Store(true)
		MustRun(p, func(c *Comm) {
			var in []float64
			if c.Rank() == root {
				in = payload
			}
			got := bcast(c, root, in)
			if len(got) != n {
				ok.Store(false)
				return
			}
			for i := range got {
				if got[i] != payload[i] {
					ok.Store(false)
				}
			}
		})
		return ok.Load()
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(100))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func ExampleRun() {
	stats := MustRun(4, func(c *Comm) {
		parts := gather(c, 0, mat.NewFromData(1, 1, []float64{float64(c.Rank() + 1)}))
		if c.Rank() == 0 {
			sum := 0.0
			for _, p := range parts {
				sum += p.At(0, 0)
			}
			fmt.Println("sum of ranks+1:", sum)
		}
	})
	fmt.Println("ranks:", stats.Ranks)
	// Output:
	// sum of ranks+1: 10
	// ranks: 4
}

// allreduceSum hands every rank the sum of one value per rank, built from
// the runtime's gather and broadcast.
func allreduceSum(c *Comm, x float64) float64 {
	parts := gather(c, 0, mat.NewFromData(1, 1, []float64{x}))
	var sum []float64
	if c.Rank() == 0 {
		sum = []float64{0}
		for _, p := range parts {
			sum[0] += p.At(0, 0)
		}
	}
	return bcast(c, 0, sum)[0]
}

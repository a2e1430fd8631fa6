package mpi

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"goparsvd/internal/mat"
)

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

func TestSendRecvVector(t *testing.T) {
	MustRun(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			got := c.Recv(0, 7)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				t.Errorf("Recv = %v", got)
			}
		}
	})
}

func TestSendCopies(t *testing.T) {
	MustRun(2, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.Send(1, 0, buf)
			buf[0] = -1 // must not affect the in-flight message
			c.Barrier()
		} else {
			c.Barrier()
			if got := c.Recv(0, 0); got[0] != 42 {
				t.Errorf("message not copied on send: %v", got)
			}
		}
	})
}

func TestSendRecvMatrix(t *testing.T) {
	MustRun(2, func(c *Comm) {
		if c.Rank() == 0 {
			m := mat.NewFromRows([][]float64{{1, 2}, {3, 4}})
			c.SendMatrix(1, 3, m)
		} else {
			got := c.RecvMatrix(0, 3)
			if got.Rows() != 2 || got.Cols() != 2 || got.At(1, 1) != 4 {
				t.Errorf("RecvMatrix = %v", got)
			}
		}
	})
}

func TestTagMismatchPanics(t *testing.T) {
	_, err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
		} else {
			c.Recv(0, 2) // wrong tag: protocol bug must be loud
		}
	})
	if err == nil {
		t.Fatal("tag mismatch should produce a rank error")
	}
}

func TestSendToSelfPanics(t *testing.T) {
	_, err := Run(1, func(c *Comm) {
		c.Send(0, 0, []float64{1})
	})
	if err == nil {
		t.Fatal("send-to-self should produce a rank error")
	}
}

func TestRankPanicAbortsPeers(t *testing.T) {
	// Rank 1 panics while rank 0 is blocked receiving from it; Run must not
	// deadlock and must report rank 1's panic.
	_, err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Recv(1, 0) // never satisfied
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
		c.Barrier()
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
			c.Barrier()
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
			got := c.BcastFloats(root, payload)
			if len(got) != 3 || got[0] != 3.5 || got[2] != float64(root) {
				t.Errorf("rank %d root %d: BcastFloats = %v", c.Rank(), root, got)
			}
		})
	}
}

func TestBcastMatrix(t *testing.T) {
	want := mat.NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	MustRun(5, func(c *Comm) {
		var m *mat.Dense
		if c.Rank() == 2 {
			m = want
		}
		got := c.BcastMatrix(2, m)
		if !mat.EqualApprox(got, want, 0) {
			t.Errorf("rank %d: BcastMatrix mismatch", c.Rank())
		}
		// Mutating the received copy must not corrupt anyone else.
		got.Set(0, 0, -99)
	})
	if want.At(0, 0) != 1 {
		t.Fatal("broadcast aliased the root's matrix")
	}
}

func TestBcastSingleRank(t *testing.T) {
	MustRun(1, func(c *Comm) {
		got := c.BcastFloats(0, []float64{7})
		if len(got) != 1 || got[0] != 7 {
			t.Errorf("single-rank bcast = %v", got)
		}
	})
}

func TestGatherMatrix(t *testing.T) {
	MustRun(3, func(c *Comm) {
		local := mat.NewFromRows([][]float64{{float64(c.Rank())}})
		out := c.GatherMatrix(0, local)
		if c.Rank() == 0 {
			for r := 0; r < 3; r++ {
				if out[r].At(0, 0) != float64(r) {
					t.Errorf("gathered[%d] = %v", r, out[r])
				}
			}
		}
	})
}

func TestGatherMatrixRootCopyIndependent(t *testing.T) {
	MustRun(2, func(c *Comm) {
		local := mat.NewFromRows([][]float64{{float64(c.Rank())}})
		out := c.GatherMatrix(0, local)
		if c.Rank() == 0 {
			out[0].Set(0, 0, 99)
			if local.At(0, 0) != 0 {
				t.Error("root's gathered copy aliases its input")
			}
		}
	})
}

func TestTrafficCounters(t *testing.T) {
	stats := MustRun(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 10))
		} else {
			c.Recv(0, 0)
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
		switch {
		case r == 0:
			c.Send(1, 0, []float64{0})
			got := c.Recv(p-1, 0)
			want := float64(p * (p - 1) / 2)
			if got[0] != want {
				t.Errorf("ring sum = %v, want %v", got[0], want)
			}
		default:
			v := c.Recv(r-1, 0)
			v[0] += float64(r)
			c.Send((r+1)%p, 0, v)
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
			got := c.BcastFloats(root, in)
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
		parts := c.GatherMatrix(0, mat.NewFromData(1, 1, []float64{float64(c.Rank() + 1)}))
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
	parts := c.GatherMatrix(0, mat.NewFromData(1, 1, []float64{x}))
	var sum []float64
	if c.Rank() == 0 {
		sum = []float64{0}
		for _, p := range parts {
			sum[0] += p.At(0, 0)
		}
	}
	return c.BcastFloats(0, sum)[0]
}

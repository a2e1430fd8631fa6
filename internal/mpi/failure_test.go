package mpi

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"goparsvd/internal/mat"
)

// These tests inject failures into ranks mid-collective and assert the
// world tears down cleanly: no deadlocks, the originating rank's panic is
// reported, and peers blocked in communication unwind as aborts rather
// than being misattributed.

func TestPanicDuringGatherAborts(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := Run(4, func(c *Comm) {
			if c.Rank() == 2 {
				panic("rank 2 failed before contributing")
			}
			c.GatherMatrix(0, mat.Eye(1)) // root blocks on rank 2 forever
		})
		re, ok := err.(*RankError)
		if !ok || re.Rank != 2 {
			t.Errorf("err = %v, want RankError from rank 2", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("gather abort deadlocked")
	}
}

func TestPanicDuringBcastAborts(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := Run(8, func(c *Comm) {
			if c.Rank() == 3 {
				panic("rank 3 failed")
			}
			var payload []float64
			if c.Rank() == 0 {
				payload = make([]float64, 100)
			}
			c.BcastFloats(0, payload)
		})
		if err == nil {
			t.Error("expected an error from the failing rank")
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("bcast abort deadlocked")
	}
}

func TestPanicDuringBarrierAborts(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := Run(4, func(c *Comm) {
			if c.Rank() == 1 {
				panic("rank 1 failed before the barrier")
			}
			c.Barrier()
		})
		re, ok := err.(*RankError)
		if !ok || re.Rank != 1 {
			t.Errorf("err = %v, want RankError from rank 1", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("barrier abort deadlocked")
	}
}

func TestFirstPanicWins(t *testing.T) {
	// Multiple ranks fail; exactly one RankError is reported and it names
	// a rank that actually panicked on its own (not an abort casualty).
	_, err := Run(4, func(c *Comm) {
		if c.Rank() == 1 || c.Rank() == 3 {
			panic("deliberate")
		}
		c.Barrier()
	})
	re, ok := err.(*RankError)
	if !ok {
		t.Fatalf("err = %v", err)
	}
	if re.Rank != 1 && re.Rank != 3 {
		t.Fatalf("blamed rank %d, want 1 or 3", re.Rank)
	}
	if !strings.Contains(re.Error(), "deliberate") {
		t.Fatalf("error message lost the panic value: %v", re)
	}
}

func TestSendToInvalidRankFails(t *testing.T) {
	_, err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(7, 0, []float64{1})
		}
	})
	if err == nil {
		t.Fatal("send to out-of-range rank accepted")
	}
}

func TestRecvFromInvalidRankFails(t *testing.T) {
	_, err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Recv(-1, 0)
		}
	})
	if err == nil {
		t.Fatal("recv from out-of-range rank accepted")
	}
}

func TestBcastInvalidRootFails(t *testing.T) {
	_, err := Run(2, func(c *Comm) {
		c.BcastFloats(5, []float64{1})
	})
	if err == nil {
		t.Fatal("broadcast from out-of-range root accepted")
	}
}

func TestVectorMatrixTypeConfusionFails(t *testing.T) {
	// Sending a matrix and receiving it as a vector is a protocol bug the
	// runtime must catch loudly.
	_, err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.SendMatrix(1, 0, mat.Eye(2))
		} else {
			c.Recv(0, 0)
		}
	})
	if err == nil {
		t.Fatal("matrix received as vector accepted")
	}
}

func TestConcurrentWorldsAreIsolated(t *testing.T) {
	// Two independent worlds running simultaneously must not interfere.
	var total atomic.Int64
	done := make(chan struct{}, 2)
	for w := 0; w < 2; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			MustRun(3, func(c *Comm) {
				total.Add(int64(allreduceSum(c, float64(c.Rank()+10*w))))
			})
		}(w)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("concurrent worlds deadlocked")
		}
	}
	// World 0: ranks sum to 3 per rank × 3 ranks = 9.
	// World 1: (10+11+12)=33 per rank × 3 ranks = 99.
	if total.Load() != 9+99 {
		t.Fatalf("total = %d, want 108", total.Load())
	}
}

func TestAbortedWorldStaysAborted(t *testing.T) {
	// After an abort, further communication attempts in surviving code
	// paths must not hang; they panic with the abort marker.
	_, err := Run(3, func(c *Comm) {
		if c.Rank() == 0 {
			panic("die")
		}
		for i := 0; i < 10; i++ {
			c.Barrier() // must unwind on the first attempt post-abort
		}
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

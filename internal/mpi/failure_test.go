package mpi

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"goparsvd/internal/mat"
)

// These tests inject failures into ranks mid-collective and assert the
// world tears down cleanly: no deadlocks, the originating rank's panic is
// reported, and peers blocked in communication get ErrAborted rather than
// being misattributed.

func TestPanicDuringGatherAborts(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := Run(4, func(c *Comm) {
			if c.Rank() == 2 {
				panic("rank 2 failed before contributing")
			}
			gather(c, 0, mat.Eye(1)) // root blocks on rank 2 until the abort
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
			bcast(c, 0, payload)
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
			if err := c.Barrier(); !errors.Is(err, ErrAborted) {
				t.Errorf("rank %d: barrier returned %v, want ErrAborted", c.Rank(), err)
			}
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
	// a rank that actually panicked on its own, not one that passed an
	// abort echo on.
	_, err := Run(4, func(c *Comm) {
		if c.Rank() == 1 || c.Rank() == 3 {
			panic("deliberate")
		}
		must(c.Barrier())
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
			c.SendMatrix(7, 0, mat.Eye(1))
		}
	})
	if err == nil {
		t.Fatal("send to out-of-range rank accepted")
	}
}

func TestRecvFromInvalidRankFails(t *testing.T) {
	_, err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.RecvMatrixInto(-1, 0, new(mat.Dense))
		}
	})
	if err == nil {
		t.Fatal("recv from out-of-range rank accepted")
	}
}

func TestBcastInvalidRootFails(t *testing.T) {
	_, err := Run(2, func(c *Comm) {
		c.BcastFloatsInto(5, []float64{1})
	})
	if err == nil {
		t.Fatal("broadcast from out-of-range root accepted")
	}
}

// TestVectorMatrixTypeConfusionFails: a vector arriving where a matrix is
// expected is bytes from a peer running another protocol, so the receive
// returns an error naming it, without a panic.
func TestVectorMatrixTypeConfusionFails(t *testing.T) {
	MustRun(2, func(c *Comm) {
		if c.Rank() == 0 {
			must(c.t.Send(0, 1, Message{Tag: 0, Data: []float64{1}, Rows: vectorRows}))
			return
		}
		var m mat.Dense
		err := c.RecvMatrixInto(0, 0, &m)
		if err == nil || !strings.Contains(err.Error(), "rank 1 expected a matrix from rank 0 tag 0") {
			t.Errorf("vector received as a matrix returned %v", err)
		}
	})
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
	// paths must not hang; each returns ErrAborted.
	_, err := Run(3, func(c *Comm) {
		if c.Rank() == 0 {
			panic("die")
		}
		for i := 0; i < 10; i++ {
			if err := c.Barrier(); !errors.Is(err, ErrAborted) {
				t.Errorf("rank %d barrier %d: %v, want ErrAborted", c.Rank(), i, err)
			}
		}
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

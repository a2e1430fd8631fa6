package mpi

import (
	"runtime"
	"testing"
	"time"

	"goparsvd/internal/mat"
)

// TestAbortLeaksNoGoroutines floods a rank that panics before receiving:
// the senders park on full per-pair mailboxes and can only be freed by the
// abort path. After Run returns, every rank goroutine (and the abort
// drainer) must be gone — a leak here would accumulate across streaming
// runs that recover from worker failures.
func TestAbortLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		_, err := Run(4, func(c *Comm) {
			if c.Rank() == 3 {
				panic("rank 3 dies before receiving anything")
			}
			// Well past mailboxCap: these sends must block, then unwind
			// via the abort instead of leaking.
			for j := 0; j < 4*mailboxCap; j++ {
				if c.SendMatrix(3, 0, mat.New(8, 8)) != nil {
					return
				}
			}
		})
		if err == nil {
			t.Fatal("expected a rank error")
		}
	}
	// The drainer goroutines are asynchronous; give them a bounded grace
	// period to finish before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if after := runtime.NumGoroutine(); after <= before+1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across aborted runs: before=%d after=%d",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAbortDrainsMailboxes verifies the drain half of the abort contract
// directly: after Abort, buffered payloads are swept out of the per-pair
// channels so a dead world does not pin megabytes of in-flight matrices.
func TestAbortDrainsMailboxes(t *testing.T) {
	tr := NewChanTransport(2)
	for i := 0; i < mailboxCap; i++ {
		if err := tr.Send(0, 1, Message{Tag: i, Data: make([]float64, 8), Rows: vectorRows}); err != nil {
			t.Fatal(err)
		}
	}
	tr.Abort()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(tr.mail[1][0]) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abort left %d messages buffered", len(tr.mail[1][0]))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Post-abort operations fail fast rather than deadlocking.
	if err := tr.Send(0, 1, Message{Rows: vectorRows}); err != ErrAborted {
		// A racing drain can still accept one message; what must never
		// happen is a block. Either ErrAborted or immediate success is
		// acceptable, so only a nil error with a full mailbox would hang —
		// which the deadline above already rules out.
		t.Logf("post-abort send returned %v", err)
	}
	if err := tr.Barrier(0); err != ErrAborted {
		t.Fatalf("post-abort barrier err = %v, want ErrAborted", err)
	}
}

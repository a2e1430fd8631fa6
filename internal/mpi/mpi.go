// Package mpi is a message-passing runtime with MPI semantics and pluggable
// transports.
//
// It is the substitution for mpi4py in this reproduction of PyParSVD. The
// algorithm-facing surface is *Comm: point-to-point Send/Recv, the two
// collectives the paper's listings use (Gather and Bcast) and a Barrier.
// Beneath *Comm sits the Transport interface, with two implementations:
//
//   - ChanTransport (the default behind NewWorld/Run): ranks are goroutines
//     in one process and messages travel over per-pair FIFO channels;
//   - tcptransport.Transport (internal/mpi/tcptransport): each OS process
//     owns one rank and messages travel over a full mesh of stream
//     connections (TCP, or socketpairs wired by a launcher) with a
//     length-prefixed wire format, so the same
//     algorithms run across real process and machine boundaries
//     (cmd/parsvd-worker is the per-rank entry point).
//
// Every rank's traffic is counted (messages and bytes), which feeds the
// weak-scaling cost model in internal/scaling.
//
// The design goal is that code written against *Comm reads like the MPI
// calls in the paper's Listings 3 and 4, so the distributed algorithms are
// a line-by-line correspondence with the published implementation —
// independent of which fabric carries the bytes.
package mpi

import (
	"fmt"
	"sync"

	"goparsvd/internal/mat"
)

// World owns the communication fabric for one parallel run. With the
// default channel transport it carries every rank of the process; Comm
// hands out per-rank handles.
type World struct {
	t Transport
}

// Stats summarizes the traffic of a completed parallel run.
type Stats struct {
	Ranks    int
	Messages int64
	Bytes    int64
	// RecvBytes[r] is the number of payload bytes delivered to rank r. It
	// exposes incast hot spots (e.g. the root of a gather) that the global
	// totals hide.
	RecvBytes []int64
}

// Comm is one rank's handle on a Transport. All methods are called from
// that rank's goroutine only.
type Comm struct {
	t    Transport
	rank int
}

// NewWorld creates an in-process communication fabric for size ranks. Most
// callers should use Run instead.
func NewWorld(size int) *World {
	return NewWorldWith(NewChanTransport(size))
}

// NewWorldWith wraps an existing transport in a World.
func NewWorldWith(t Transport) *World {
	return &World{t: t}
}

// Comm returns the communicator handle for the given rank.
func (w *World) Comm(rank int) *Comm {
	return NewComm(w.t, rank)
}

// Stats returns the aggregate traffic counters.
func (w *World) Stats() Stats { return w.t.Stats() }

// Abort tears down the world so that peers blocked in Send/Recv/Barrier
// unblock (and themselves panic with the abort marker).
func (w *World) Abort() { w.t.Abort() }

// NewComm binds a communicator handle for rank to a transport. Single-rank
// transports (one process per rank, e.g. the TCP backend) hand their own
// rank here; in-process worlds usually go through World.Comm or Run.
func NewComm(t Transport, rank int) *Comm {
	if rank < 0 || rank >= t.Size() {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, t.Size()))
	}
	return &Comm{t: t, rank: rank}
}

// abortError is the panic value raised in ranks that were blocked on
// communication when another rank failed.
type abortError struct{}

func (abortError) Error() string { return "mpi: aborted because a peer rank panicked" }

// Is makes the abort echo match ErrAborted, so a caller that recovers it
// tells it from a rank's own panic with errors.Is.
func (abortError) Is(target error) bool { return target == ErrAborted }

// RankError reports a panic that occurred inside a rank function during Run
// or RunRank.
type RankError struct {
	Rank  int
	Value any
}

// Error formats the rank number and the original panic value.
func (e *RankError) Error() string {
	return fmt.Sprintf("mpi: rank %d panicked: %v", e.Rank, e.Value)
}

// Run executes fn concurrently on size ranks over the in-process channel
// transport and waits for all of them. It returns the traffic statistics of
// the run. If any rank panics, the world is aborted (unblocking the other
// ranks) and the first panic is returned as a *RankError.
func Run(size int, fn func(c *Comm)) (Stats, error) {
	w := NewWorld(size)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr *RankError
	)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if err := runRank(w.t, rank, fn); err != nil {
				if re, ok := err.(*RankError); ok {
					mu.Lock()
					if firstErr == nil {
						firstErr = re
					}
					mu.Unlock()
				}
			}
		}(r)
	}
	wg.Wait()
	if firstErr != nil {
		return w.Stats(), firstErr
	}
	return w.Stats(), nil
}

// MustRun is Run for callers that treat a rank panic as fatal (tests,
// examples, benchmarks). It re-panics with the rank error.
func MustRun(size int, fn func(c *Comm)) Stats {
	stats, err := Run(size, fn)
	if err != nil {
		panic(err)
	}
	return stats
}

// RunRank executes fn as the given rank of t on the calling goroutine. It
// is the entry point for one-process-per-rank deployments: a worker process
// establishes its transport (e.g. tcptransport.New), calls RunRank, and
// the panic/abort discipline of Run applies across the whole distributed
// job — if fn panics, the transport is aborted, live peers unwind with
// ErrAborted, and the panic comes back as a *RankError; if a peer fails
// first, RunRank returns ErrAborted. The caller owns the transport and
// should Close it after a successful return.
func RunRank(t Transport, rank int, fn func(c *Comm)) (Stats, error) {
	err := runRank(t, rank, fn)
	return t.Stats(), err
}

// runRank wraps one rank's execution with the recover-and-abort protocol
// shared by Run and RunRank.
func runRank(t Transport, rank int, fn func(c *Comm)) (err error) {
	defer func() {
		if v := recover(); v != nil {
			t.Abort()
			if _, isAbort := v.(abortError); isAbort {
				err = ErrAborted
			} else {
				err = &RankError{Rank: rank, Value: v}
			}
		}
	}()
	fn(NewComm(t, rank))
	return nil
}

// Rank returns this communicator's rank in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.t.Size() }

// Send transmits a float64 slice to rank dst with the given tag. The data is
// copied, so the caller may reuse the slice immediately.
func (c *Comm) Send(dst, tag int, data []float64) {
	c.sendMsg(dst, Message{Tag: tag, Data: data, Rows: vectorRows})
}

// Recv receives a float64 slice from rank src with the given tag. Receiving
// a message whose tag does not match panics: per-pair delivery is FIFO, so
// a mismatch is always a protocol bug.
func (c *Comm) Recv(src, tag int) []float64 {
	m := c.recvMsg(src, tag)
	if m.Rows != vectorRows {
		panic(fmt.Sprintf("mpi: rank %d expected vector from %d tag %d, got %dx%d matrix",
			c.rank, src, tag, m.Rows, m.Cols))
	}
	return m.Data
}

// SendMatrix transmits a matrix to rank dst. The contents are copied.
func (c *Comm) SendMatrix(dst, tag int, m *mat.Dense) {
	r, cols := m.Dims()
	c.sendMsg(dst, Message{Tag: tag, Data: m.RawData(), Rows: r, Cols: cols})
}

// RecvMatrix receives a matrix from rank src with the given tag.
func (c *Comm) RecvMatrix(src, tag int) *mat.Dense {
	m := c.recvMsg(src, tag)
	if m.Rows < 0 {
		panic(fmt.Sprintf("mpi: rank %d expected matrix from %d tag %d, got vector",
			c.rank, src, tag))
	}
	return mat.NewFromData(m.Rows, m.Cols, m.Data)
}

// RecvMatrixInto receives a matrix from rank src into dst
// (mat.Dense.Assign: dst's own storage when it holds the values) and hands
// the message's payload back to the fabric, so a rank that receives
// same-shaped matrices into the same storage allocates nothing.
func (c *Comm) RecvMatrixInto(src, tag int, dst *mat.Dense) {
	m := c.recvMsg(src, tag)
	if m.Rows < 0 {
		panic(fmt.Sprintf("mpi: rank %d expected matrix from %d tag %d, got vector",
			c.rank, src, tag))
	}
	dst.Assign(m.Rows, m.Cols, m.Data)
	c.t.Recycle(c.rank, src, m.Data)
}

// sendMsg validates the destination and hands the message to the transport,
// converting a torn-down fabric into the abort panic.
func (c *Comm) sendMsg(dst int, m Message) {
	if dst < 0 || dst >= c.t.Size() {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	if dst == c.rank {
		panic("mpi: send to self is not supported; collectives handle the local contribution directly")
	}
	if err := c.t.Send(c.rank, dst, m); err != nil {
		if err == ErrAborted {
			panic(abortError{})
		}
		// Transport misuse (e.g. an over-sized frame) is a loud local
		// protocol bug, not an abort echo: name the real cause.
		panic(err)
	}
}

func (c *Comm) recvMsg(src, tag int) Message {
	if src < 0 || src >= c.t.Size() {
		panic(fmt.Sprintf("mpi: recv from invalid rank %d", src))
	}
	if src == c.rank {
		panic("mpi: recv from self is not supported")
	}
	m, err := c.t.Recv(c.rank, src)
	if err != nil {
		if err == ErrAborted {
			panic(abortError{})
		}
		panic(err)
	}
	if m.Tag != tag {
		panic(fmt.Sprintf("mpi: rank %d expected tag %d from rank %d, got %d",
			c.rank, tag, src, m.Tag))
	}
	return m
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() {
	if err := c.t.Barrier(c.rank); err != nil {
		panic(abortError{})
	}
}

// Package mpi is a message-passing runtime with MPI semantics and pluggable
// transports.
//
// It is the substitution for mpi4py in this reproduction of PyParSVD. The
// algorithm-facing surface is *Comm: point-to-point SendMatrix and
// RecvMatrixInto, the two collectives the paper's listings use (Gather and
// Bcast, here GatherMatrixViews, BcastMatrixInto and BcastFloatsInto) and a
// Barrier. Every one of them returns an error, as a failed comm.gather or
// comm.bcast raises on that call in mpi4py: ErrAborted itself once the
// fabric is torn down (a peer failed, a link broke, or Abort was called),
// any other transport error as the transport reported it, and an error
// naming both ranks and the tag when a peer sends a message of another tag
// or kind. Only a caller's own mistake panics: a rank out of range, a send
// to self, a bad root or a wrong output length.
//
// Beneath *Comm sits the Transport interface, with two implementations:
//
//   - ChanTransport (the transport behind Run): ranks are goroutines
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
	"errors"
	"fmt"
	"sync"

	"goparsvd/internal/mat"
)

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

// NewComm binds a communicator handle for rank to a transport. Single-rank
// transports (one process per rank, e.g. the TCP backend) hand their own
// rank here; in-process worlds go through Run.
func NewComm(t Transport, rank int) *Comm {
	if rank < 0 || rank >= t.Size() {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, t.Size()))
	}
	return &Comm{t: t, rank: rank}
}

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
// transport and waits for all of them: the harness for tests, benchmarks
// and the measured scaling sweep; no facade, worker or server path runs
// through it. It returns the traffic statistics of the run. If any rank panics, the world is aborted (so the other ranks'
// Comm calls return ErrAborted) and the first panic is returned as a
// *RankError.
func Run(size int, fn func(c *Comm)) (Stats, error) {
	t := NewChanTransport(size)
	var (
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error
	)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if err := runRank(t, rank, fn); errors.As(err, new(*RankError)) {
				once.Do(func() { firstErr = err })
			}
		}(r)
	}
	wg.Wait()
	return t.Stats(), firstErr
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

// RunRank executes fn as the given rank of t on the calling goroutine, with
// Run's panic discipline across a one-process-per-rank world: the harness
// tcptransport.Run puts under each endpoint. If fn panics, the transport
// is aborted, so live peers' Comm calls return ErrAborted, and the panic
// comes back as a *RankError; a panic with an error matching ErrAborted
// (an abort echo fn passed on) comes back as ErrAborted. The caller owns
// the transport and should Close it after a successful return.
func RunRank(t Transport, rank int, fn func(c *Comm)) (Stats, error) {
	err := runRank(t, rank, fn)
	return t.Stats(), err
}

// runRank wraps one rank's execution with the recover-and-abort protocol
// shared by the Run and RunRank harnesses. It is the one recover in the
// module's production code: the engines, the facade and the worker report
// failures as errors.
func runRank(t Transport, rank int, fn func(c *Comm)) (err error) {
	defer func() {
		if v := recover(); v != nil {
			t.Abort()
			if e, ok := v.(error); ok && errors.Is(e, ErrAborted) {
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

// SendMatrix transmits a matrix to rank dst. The contents are copied.
func (c *Comm) SendMatrix(dst, tag int, m *mat.Dense) error {
	r, cols := m.Dims()
	return c.sendMsg(dst, Message{Tag: tag, Data: m.RawData(), Rows: r, Cols: cols})
}

// RecvMatrixInto receives a matrix from rank src into dst
// (mat.Dense.Assign: dst's own storage when it holds the values) and hands
// the message's payload back to the fabric, so a rank that receives
// same-shaped matrices into the same storage allocates nothing.
func (c *Comm) RecvMatrixInto(src, tag int, dst *mat.Dense) error {
	m, err := c.recvMsg(src, tag, false)
	if err != nil {
		return err
	}
	dst.Assign(m.Rows, m.Cols, m.Data)
	c.t.Recycle(c.rank, src, m.Data)
	return nil
}

// sendMsg validates the destination and hands the message to the
// transport, whose error (ErrAborted once the fabric is torn down) it
// returns as it is.
func (c *Comm) sendMsg(dst int, m Message) error {
	if dst < 0 || dst >= c.t.Size() {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	if dst == c.rank {
		panic("mpi: send to self is not supported; collectives handle the local contribution directly")
	}
	return c.t.Send(c.rank, dst, m)
}

// recvMsg receives the next message from src, a vector or a matrix as
// vector says, with the given tag. Per-pair delivery is FIFO, so another
// tag or kind means the peer is not running the same protocol: that is an
// error naming both ends and the tag, not a panic, since the bytes came
// from another rank.
func (c *Comm) recvMsg(src, tag int, vector bool) (Message, error) {
	if src < 0 || src >= c.t.Size() {
		panic(fmt.Sprintf("mpi: recv from invalid rank %d", src))
	}
	if src == c.rank {
		panic("mpi: recv from self is not supported")
	}
	m, err := c.t.Recv(c.rank, src)
	switch {
	case err != nil:
		return m, err
	case m.Tag != tag:
		return m, fmt.Errorf("mpi: rank %d expected tag %d from rank %d, got %d",
			c.rank, tag, src, m.Tag)
	case (m.Rows == vectorRows) != vector:
		return m, fmt.Errorf("mpi: rank %d expected a %s from rank %d tag %d, got %d rows of %d",
			c.rank, kinds[vector], src, tag, m.Rows, m.Cols)
	}
	return m, nil
}

// kinds names a message kind by recvMsg's vector argument.
var kinds = map[bool]string{false: "matrix", true: "vector"}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() error { return c.t.Barrier(c.rank) }

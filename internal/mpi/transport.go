package mpi

import "errors"

// Message is the unit of point-to-point transfer between ranks. Matrices
// travel as their row-major backing slice plus shape; plain vectors use
// Rows = -1. The struct is transport-agnostic: the in-process fabric moves
// it through channels, the TCP backend serializes it into length-prefixed
// frames (see internal/mpi/tcptransport).
type Message struct {
	Tag        int
	Data       []float64
	Rows, Cols int
}

// vectorRows marks a Message that carries a plain []float64 rather than a
// matrix.
const vectorRows = -1

// ErrAborted is returned by Transport operations, and by the Comm calls
// above them, after the fabric has been torn down — because a peer rank
// failed, a connection broke, or Abort was called.
var ErrAborted = errors.New("mpi: world aborted")

// Transport is the communication fabric beneath *Comm and *World: blocking
// point-to-point delivery with per-(src,dst) FIFO ordering, a full barrier,
// an abort path that unblocks every pending operation, and traffic counters.
//
// Two implementations exist:
//
//   - the in-process channel fabric (NewChanTransport), where one Transport
//     value carries all ranks of a single process and Send/Recv are valid
//     for any (src, dst) pair;
//   - the TCP backend (internal/mpi/tcptransport), where each OS process
//     owns one rank and a Transport value only accepts Send with src ==
//     own rank and Recv with dst == own rank.
//
// Algorithm code never sees this interface directly — it talks to *Comm,
// which pins src/dst to the communicator's rank, so the same collectives
// and solvers run unmodified over either fabric.
type Transport interface {
	// Size returns the number of ranks in the fabric.
	Size() int
	// Send delivers m from src to dst, blocking until the message is
	// accepted (buffered or on the wire). The payload is copied or
	// serialized before Send returns, so the caller may immediately reuse
	// the slice. Returns ErrAborted if the fabric is torn down.
	Send(src, dst int, m Message) error
	// Recv blocks until the next message from src addressed to dst is
	// available and returns it. Messages from one src are delivered in
	// send order. Returns ErrAborted if the fabric is torn down (or, for
	// socket transports, if the peer closed with no message pending).
	Recv(dst, src int) (Message, error)
	// Recycle hands back the payload of a message Recv delivered to dst
	// from src, once the caller has copied what it needs, so the fabric
	// may deliver a later message on that pair in the same storage. The
	// caller must not touch data afterwards. Recycling is optional — a
	// payload never handed back is garbage collected — and after Abort or
	// Close the fabric drops what it is handed.
	Recycle(dst, src int, data []float64)
	// Barrier blocks rank until every rank has entered the barrier.
	// Returns ErrAborted if the fabric is torn down while waiting.
	Barrier(rank int) error
	// Abort tears the fabric down: every blocked and future operation
	// returns ErrAborted. Abort is idempotent and safe to call from any
	// goroutine; socket transports additionally notify live peers so the
	// whole multi-process job unwinds.
	Abort()
	// Stats returns the traffic counters accumulated so far. For
	// single-rank transports only the owning rank's entries are
	// meaningful; a multi-process launcher sums the per-rank reports
	// (see internal/launch.Session.Stats).
	Stats() Stats
	// Close releases the fabric's resources after a successful run. It is
	// idempotent. Unlike Abort it does not mark the run as failed, but
	// operations issued after Close still fail with ErrAborted.
	Close() error
}

package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// mailboxCap is the per-pair channel buffer. Senders beyond it block, which
// mirrors MPI's rendezvous protocol for large messages.
const mailboxCap = 8

// ChanTransport is the in-process fabric: ranks are goroutines and messages
// travel over per-pair FIFO channels. One ChanTransport value carries every
// rank of the world, so Send/Recv accept any (src, dst) pair. It is the
// transport behind Run and preserves the exact semantics
// the runtime had before the Transport split.
type ChanTransport struct {
	size int
	// mail[dst][src] is the FIFO channel for messages from src to dst.
	mail [][]chan Message
	// pools[dst][src] recycles the payload copies Send makes for the
	// pair.
	pools   [][]BufferPool
	barrier *chanBarrier
	abort   chan struct{}
	aborted atomic.Bool

	bytesSent atomic.Int64
	msgsSent  atomic.Int64
	recvBytes []atomic.Int64 // indexed by receiving rank
}

var _ Transport = (*ChanTransport)(nil)

// NewChanTransport creates an in-process fabric for size ranks.
func NewChanTransport(size int) *ChanTransport {
	if size < 1 {
		panic(fmt.Sprintf("mpi: world size %d < 1", size))
	}
	t := &ChanTransport{
		size:      size,
		mail:      make([][]chan Message, size),
		pools:     make([][]BufferPool, size),
		barrier:   newChanBarrier(size),
		abort:     make(chan struct{}),
		recvBytes: make([]atomic.Int64, size),
	}
	for dst := 0; dst < size; dst++ {
		t.mail[dst] = make([]chan Message, size)
		t.pools[dst] = make([]BufferPool, size)
		for src := 0; src < size; src++ {
			t.mail[dst][src] = make(chan Message, mailboxCap)
		}
	}
	return t
}

// Size returns the number of ranks.
func (t *ChanTransport) Size() int { return t.size }

// Send enqueues a message for dst, copying the payload so the sender's
// buffer (and any downstream receiver's view) can never alias in-flight or
// delivered data. Copy-on-send is centralized here so relayed collective
// hops (broadcast trees) are safe too. The copy goes into storage the
// receiver recycled, when it did. After Abort it fails without a copy.
func (t *ChanTransport) Send(src, dst int, m Message) error {
	if t.aborted.Load() {
		return ErrAborted
	}
	m.Data = append(t.pools[dst][src].Get(len(m.Data)), m.Data...)
	t.msgsSent.Add(1)
	t.bytesSent.Add(int64(8 * len(m.Data)))
	select {
	case t.mail[dst][src] <- m:
		return nil
	case <-t.abort:
		return ErrAborted
	}
}

// Recv dequeues the next message from src addressed to dst. After Abort
// it fails even when a message is still buffered.
func (t *ChanTransport) Recv(dst, src int) (Message, error) {
	if t.aborted.Load() {
		return Message{}, ErrAborted
	}
	select {
	case m := <-t.mail[dst][src]:
		t.recvBytes[dst].Add(int64(8 * len(m.Data)))
		return m, nil
	case <-t.abort:
		return Message{}, ErrAborted
	}
}

// Recycle returns a delivered payload to the pair's pool.
func (t *ChanTransport) Recycle(dst, src int, data []float64) {
	t.pools[dst][src].Put(data)
}

// Barrier blocks rank until every rank has entered.
func (t *ChanTransport) Barrier(rank int) error {
	if !t.barrier.await() {
		return ErrAborted
	}
	return nil
}

// Abort tears down the fabric: the abort channel unblocks every pending
// Send/Recv, the barrier releases its waiters, and the per-pair mailboxes
// are drained in the background so payloads buffered for ranks that will
// never receive them (and senders still parked on full mailboxes) are
// released instead of pinning goroutines and memory until the world is
// garbage collected.
func (t *ChanTransport) Abort() {
	if t.aborted.CompareAndSwap(false, true) {
		close(t.abort)
		t.barrier.abort()
		for dst := range t.pools {
			for src := range t.pools[dst] {
				t.pools[dst][src].Close()
			}
		}
		go t.drain()
	}
}

// drain empties every mailbox after an abort. Sends racing the abort can
// still deposit messages (the select in Send picks pseudo-randomly when
// both cases are ready), so keep sweeping until a full pass finds every
// channel empty.
func (t *ChanTransport) drain() {
	for {
		empty := true
		for dst := range t.mail {
			for src := range t.mail[dst] {
				for drained := false; !drained; {
					select {
					case <-t.mail[dst][src]:
						empty = false
					default:
						drained = true
					}
				}
			}
		}
		if empty {
			return
		}
	}
}

// Stats returns the aggregate traffic counters.
func (t *ChanTransport) Stats() Stats {
	rb := make([]int64, t.size)
	for r := range rb {
		rb[r] = t.recvBytes[r].Load()
	}
	return Stats{Ranks: t.size, Messages: t.msgsSent.Load(), Bytes: t.bytesSent.Load(), RecvBytes: rb}
}

// Close releases the fabric. For the in-process transport this is the same
// teardown as Abort (there are no sockets to shut down gracefully); a world
// whose ranks all returned normally has nothing left blocked on it.
func (t *ChanTransport) Close() error {
	t.Abort()
	return nil
}

// chanBarrier is a reusable counting barrier with abort support.
type chanBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	size    int
	count   int
	gen     int
	stopped bool
}

func newChanBarrier(size int) *chanBarrier {
	b := &chanBarrier{size: size}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until all ranks arrive; it returns false if the barrier was
// aborted while waiting.
func (b *chanBarrier) await() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stopped {
		return false
	}
	gen := b.gen
	b.count++
	if b.count == b.size {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return true
	}
	for gen == b.gen && !b.stopped {
		b.cond.Wait()
	}
	return !b.stopped
}

func (b *chanBarrier) abort() {
	b.mu.Lock()
	b.stopped = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

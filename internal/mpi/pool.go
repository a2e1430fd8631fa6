package mpi

import "sync"

// BufferPool is the free list of message payloads behind one direction of
// one rank pair. The goroutine that fills a payload (a socket reader, or
// the in-process sender's copy) takes storage from it, and the rank that
// consumed the message hands the storage back (Transport.Recycle) once a
// collective has copied the values where they belong, so a steady
// sequence of same-shaped messages reuses the same few buffers instead of
// allocating one per message. It is safe for concurrent use; a nil pool
// holds nothing and drops what it is handed.
//
// Close drops every pooled payload and refuses later ones, so no recycled
// buffer outlives an aborted or closed fabric.
type BufferPool struct {
	mu     sync.Mutex
	free   [][]float64
	closed bool
}

// maxPooled bounds a pool's free list: a collective has at most a few
// messages in flight between one pair of ranks.
const maxPooled = 8

// Get returns pooled storage for n values, length 0, or nil when no pooled
// buffer holds n: the smallest one that does, so a small message never
// takes the buffer a larger one of the same round needs. Callers append
// into it, so a miss allocates exactly as a plain append would.
func (p *BufferPool) Get(n int) []float64 {
	if n == 0 || p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	best := -1
	for i, b := range p.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(p.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	b := p.free[best]
	last := len(p.free) - 1
	p.free[best], p.free[last] = p.free[last], nil
	p.free = p.free[:last]
	return b[:0]
}

// Put returns a payload to the pool. The caller must not touch it
// afterwards. A full or closed pool drops it.
func (p *BufferPool) Put(b []float64) {
	if cap(b) == 0 || p == nil {
		return
	}
	p.mu.Lock()
	if !p.closed && len(p.free) < maxPooled {
		p.free = append(p.free, b)
	}
	p.mu.Unlock()
}

// Close empties the pool for good: what it holds goes to the garbage
// collector, and so does everything handed to it later.
func (p *BufferPool) Close() {
	p.mu.Lock()
	p.closed = true
	p.free = nil
	p.mu.Unlock()
}

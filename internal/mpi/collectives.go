package mpi

import (
	"fmt"

	"goparsvd/internal/mat"
)

// Collective operations reserve the negative tag space so they can never
// collide with user point-to-point tags.
const (
	tagBcast = -(iota + 1)
	tagGather
)

// BcastFloats broadcasts a slice from root to every rank along a binomial
// tree (log₂ P rounds, like any production MPI). Root passes the payload;
// other ranks pass nil. Every rank returns its own copy.
func (c *Comm) BcastFloats(root int, data []float64) []float64 {
	m := c.bcastMsg(root, Message{Tag: tagBcast, Data: data, Rows: vectorRows})
	return m.Data
}

// BcastMatrix broadcasts a matrix from root to every rank. Root passes the
// matrix; other ranks pass nil. Every rank returns its own copy (including
// root, which gets a clone so later mutation is safe).
func (c *Comm) BcastMatrix(root int, m *mat.Dense) *mat.Dense {
	var msg Message
	if c.rank == root {
		if m == nil {
			panic("mpi: BcastMatrix root passed nil matrix")
		}
		r, cl := m.Dims()
		msg = Message{Tag: tagBcast, Data: m.RawData(), Rows: r, Cols: cl}
	}
	out := c.bcastMsg(root, msg)
	return mat.NewFromData(out.Rows, out.Cols, out.Data)
}

// bcastMsg moves one message down a binomial tree rooted at root. The
// message payload is copied on every hop by sendMsg.
func (c *Comm) bcastMsg(root int, m Message) Message {
	size := c.t.Size()
	if root < 0 || root >= size {
		panic(fmt.Sprintf("mpi: broadcast root %d out of range", root))
	}
	if size == 1 {
		m.Data = append([]float64(nil), m.Data...)
		return m
	}
	m.Tag = tagBcast
	rel := (c.rank - root + size) % size
	received := rel == 0
	for offset := 1; offset < size; offset *= 2 {
		switch {
		case received && rel < offset && rel+offset < size:
			dst := (root + rel + offset) % size
			c.sendMsg(dst, m)
		case !received && rel >= offset && rel < 2*offset:
			src := (root + rel - offset) % size
			m = c.recvMsg(src, tagBcast)
			received = true
		}
	}
	if rel == 0 {
		m.Data = append([]float64(nil), m.Data...)
	}
	return m
}

// GatherMatrix collects one matrix per rank at root; the paper's
// `comm.gather(wlocal, root=0)`. At root the slice is indexed by rank; at
// other ranks it is nil.
func (c *Comm) GatherMatrix(root int, m *mat.Dense) []*mat.Dense {
	if c.rank != root {
		c.SendMatrix(root, tagGather, m)
		return nil
	}
	out := make([]*mat.Dense, c.t.Size())
	out[root] = m.Clone()
	for src := 0; src < c.t.Size(); src++ {
		if src == root {
			continue
		}
		msg := c.recvMsg(src, tagGather)
		out[src] = mat.NewFromData(msg.Rows, msg.Cols, msg.Data)
	}
	return out
}

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
	var out []float64
	if c.rank == root {
		out = append(out, data...)
	}
	return c.BcastFloatsInto(root, out)
}

// BcastFloatsInto is BcastFloats into caller storage: root sends data as
// it is and returns it; every other rank appends the values to data[:0]
// and returns the result, so a rank that passes back what the previous
// broadcast returned allocates nothing once the length is steady.
func (c *Comm) BcastFloatsInto(root int, data []float64) []float64 {
	c.bcastTree(root, func(src int) {
		m := c.recvMsg(src, tagBcast)
		data = append(data[:0], m.Data...)
		c.t.Recycle(c.rank, src, m.Data)
	}, func(dst int) {
		c.sendMsg(dst, Message{Tag: tagBcast, Data: data, Rows: vectorRows})
	})
	return data
}

// BcastMatrix broadcasts a matrix from root to every rank. Root passes the
// matrix; other ranks pass nil. Every rank returns its own copy (including
// root, which gets a clone so later mutation is safe).
func (c *Comm) BcastMatrix(root int, m *mat.Dense) *mat.Dense {
	out := new(mat.Dense)
	if c.rank == root {
		if m == nil {
			panic("mpi: BcastMatrix root passed nil matrix")
		}
		out = m.Clone()
	}
	c.BcastMatrixInto(root, out)
	return out
}

// BcastMatrixInto is BcastMatrix into caller storage: root sends m as it
// is, and every other rank receives into m as RecvMatrixInto does.
func (c *Comm) BcastMatrixInto(root int, m *mat.Dense) {
	c.bcastTree(root, func(src int) {
		c.RecvMatrixInto(src, tagBcast, m)
	}, func(dst int) {
		c.SendMatrix(dst, tagBcast, m)
	})
}

// bcastTree walks the binomial tree rooted at root: every rank but root
// calls recv once, with its parent's rank, and then every rank that holds
// the payload calls send once per child.
func (c *Comm) bcastTree(root int, recv, send func(peer int)) {
	size := c.t.Size()
	if root < 0 || root >= size {
		panic(fmt.Sprintf("mpi: broadcast root %d out of range", root))
	}
	rel := (c.rank - root + size) % size
	received := rel == 0
	for offset := 1; offset < size; offset *= 2 {
		switch {
		case received && rel < offset && rel+offset < size:
			send((root + rel + offset) % size)
		case !received && rel >= offset && rel < 2*offset:
			recv((root + rel - offset) % size)
			received = true
		}
	}
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
	for src := range out {
		if src != root {
			out[src] = c.RecvMatrix(src, tagGather)
		}
	}
	return out
}

// GatherMatrixViews is GatherMatrix without a copy at root: out holds one
// matrix per rank, and each other rank's matrix is pointed at the payload
// its message arrived in (mat.Dense.Wrap); out[root] is left as it is, for
// the caller to point at its own matrix. The payloads stay the caller's
// until ReleaseViews hands them back to the fabric, which decodes later
// messages into them, so a steady sequence of gathers allocates nothing.
// Other ranks send m and ignore out.
func (c *Comm) GatherMatrixViews(root int, m *mat.Dense, out []*mat.Dense) {
	if c.rank != root {
		c.SendMatrix(root, tagGather, m)
		return
	}
	if len(out) != c.t.Size() {
		panic(fmt.Sprintf("mpi: gather into %d matrices on %d ranks", len(out), c.t.Size()))
	}
	for src, dst := range out {
		if src != root {
			msg := c.recvMsg(src, tagGather)
			if msg.Rows < 0 {
				panic(fmt.Sprintf("mpi: rank %d expected matrix from %d tag %d, got vector",
					c.rank, src, tagGather))
			}
			dst.Wrap(msg.Rows, msg.Cols, msg.Data)
		}
	}
}

// ReleaseViews hands back to the fabric the payloads GatherMatrixViews
// pointed out's matrices at, and empties those matrices, so releasing
// twice hands nothing back twice. Only root holds payloads; on other
// ranks it does nothing.
func (c *Comm) ReleaseViews(root int, out []*mat.Dense) {
	if c.rank != root {
		return
	}
	for src, m := range out {
		if src != root && m != nil && cap(m.RawData()) > 0 {
			c.t.Recycle(c.rank, src, m.RawData())
			m.Wrap(0, 0, nil)
		}
	}
}

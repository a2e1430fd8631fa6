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

// BcastFloatsInto broadcasts a slice from root to every rank along a
// binomial tree (log₂ P rounds, like any production MPI): root sends data
// as it is and returns it; every other rank appends the values to data[:0]
// and returns the result, so a rank that passes back what the previous
// broadcast returned allocates nothing once the length is steady.
func (c *Comm) BcastFloatsInto(root int, data []float64) ([]float64, error) {
	err := c.bcastTree(root, func(src int) error {
		m, err := c.recvMsg(src, tagBcast, true)
		if err != nil {
			return err
		}
		data = append(data[:0], m.Data...)
		c.t.Recycle(c.rank, src, m.Data)
		return nil
	}, func(dst int) error {
		return c.sendMsg(dst, Message{Tag: tagBcast, Data: data, Rows: vectorRows})
	})
	return data, err
}

// BcastMatrixInto broadcasts a matrix from root to every rank into caller
// storage: root sends m as it is, and every other rank receives into m as
// RecvMatrixInto does.
func (c *Comm) BcastMatrixInto(root int, m *mat.Dense) error {
	return c.bcastTree(root, func(src int) error {
		return c.RecvMatrixInto(src, tagBcast, m)
	}, func(dst int) error {
		return c.SendMatrix(dst, tagBcast, m)
	})
}

// bcastTree walks the binomial tree rooted at root: every rank but root
// calls recv once, with its parent's rank, and then every rank that holds
// the payload calls send once per child. The first error ends the walk.
func (c *Comm) bcastTree(root int, recv, send func(peer int) error) error {
	size := c.t.Size()
	if root < 0 || root >= size {
		panic(fmt.Sprintf("mpi: broadcast root %d out of range", root))
	}
	rel := (c.rank - root + size) % size
	received := rel == 0
	for offset := 1; offset < size; offset *= 2 {
		var err error
		switch {
		case received && rel < offset && rel+offset < size:
			err = send((root + rel + offset) % size)
		case !received && rel >= offset && rel < 2*offset:
			err = recv((root + rel - offset) % size)
			received = true
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// GatherMatrixViews collects one matrix per rank at root, the paper's
// `comm.gather(wlocal, root=0)`, without a copy at root: out holds one
// matrix per rank, and each other rank's matrix is pointed at the payload
// its message arrived in (mat.Dense.Wrap); out[root] is left as it is, for
// the caller to point at its own matrix. The payloads stay the caller's
// until ReleaseViews hands them back to the fabric, which decodes later
// messages into them, so a steady sequence of gathers allocates nothing.
// Other ranks send m and ignore out.
func (c *Comm) GatherMatrixViews(root int, m *mat.Dense, out []*mat.Dense) error {
	if c.rank != root {
		return c.SendMatrix(root, tagGather, m)
	}
	if len(out) != c.t.Size() {
		panic(fmt.Sprintf("mpi: gather into %d matrices on %d ranks", len(out), c.t.Size()))
	}
	for src, dst := range out {
		if src != root {
			msg, err := c.recvMsg(src, tagGather, false)
			if err != nil {
				return err
			}
			dst.Wrap(msg.Rows, msg.Cols, msg.Data)
		}
	}
	return nil
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

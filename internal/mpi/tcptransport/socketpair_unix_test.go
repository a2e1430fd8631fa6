//go:build unix

package tcptransport

import (
	"net"
	"os"
	"syscall"

	"goparsvd/internal/mpi"
)

func init() { worlds = append(worlds, world{"peers", socketpairWorld}) }

// socketpairWorld wires a size-rank world the way a launcher does: one
// AF_UNIX socketpair per rank pair, every endpoint adopting its ends
// through Options.Peers. No endpoint listens or dials.
func socketpairWorld(size int, base Options) ([]*Transport, error) {
	peers := make([][]net.Conn, size)
	for r := range peers {
		peers[r] = make([]net.Conn, size)
	}
	closeAll := func() {
		for _, row := range peers {
			for _, c := range row {
				if c != nil {
					c.Close()
				}
			}
		}
	}
	for i := 0; i < size; i++ {
		for j := i + 1; j < size; j++ {
			fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
			if err != nil {
				closeAll()
				return nil, err
			}
			for k, end := range []*net.Conn{&peers[i][j], &peers[j][i]} {
				f := os.NewFile(uintptr(fds[k]), "socketpair")
				*end, err = net.FileConn(f)
				f.Close()
				if err != nil {
					if k == 0 {
						syscall.Close(fds[1]) // not yet wrapped
					}
					closeAll()
					return nil, err
				}
			}
		}
	}
	ts := make([]*Transport, size)
	for r := range ts {
		o := base
		o.Rank, o.Size, o.Peers = r, size, peers[r]
		t, err := New(o)
		if err != nil {
			closeAll()
			return nil, err
		}
		ts[r] = t
	}
	return ts, nil
}

// RunSocketpair is Run over a socketpair world: the conformance suites in
// the external test package run once per way of wiring a world.
func RunSocketpair(size int, base Options, fn func(c *mpi.Comm)) (mpi.Stats, error) {
	ts, err := socketpairWorld(size, base)
	if err != nil {
		return mpi.Stats{}, err
	}
	return runWorld(ts, fn)
}

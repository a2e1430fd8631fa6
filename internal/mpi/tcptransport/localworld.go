package tcptransport

import (
	"fmt"
	"net"
	"sync"

	"goparsvd/internal/mpi"
)

// LocalWorld wires up a complete size-rank TCP fabric over loopback inside
// one process: rank 0's endpoint listens on an ephemeral port and the
// others dial it, exactly as separate worker processes would. It exists
// for tests and single-machine experiments — the real multi-process entry
// point is cmd/parsvd-worker — but the bytes still cross real sockets, so
// it exercises the full wire path. base supplies shared options (timeouts
// etc.); Rank/Size/Rendezvous/Listener are filled in per endpoint.
func LocalWorld(size int, base Options) ([]*Transport, error) {
	if size < 1 {
		return nil, fmt.Errorf("tcptransport: world size %d < 1", size)
	}
	if size == 1 {
		o := base
		o.Rank, o.Size = 0, 1
		t, err := New(o)
		if err != nil {
			return nil, err
		}
		return []*Transport{t}, nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	ts := make([]*Transport, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			o := base
			o.Rank, o.Size = rank, size
			if rank == 0 {
				o.Listener = l
			} else {
				o.Rendezvous = addr
			}
			ts[rank], errs[rank] = New(o)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			for _, t := range ts {
				if t != nil {
					t.Abort()
				}
			}
			return nil, fmt.Errorf("tcptransport: rank %d handshake: %w", r, err)
		}
	}
	return ts, nil
}

// Run executes fn on size ranks, each backed by its own loopback TCP
// endpoint, mirroring mpi.Run's contract: it blocks until every rank
// returns, aggregates the per-endpoint traffic counters, and reports the
// first rank panic as a *mpi.RankError. It is the TCP twin of mpi.Run and
// lets the full collective/solver test suites run over real sockets.
func Run(size int, base Options, fn func(c *mpi.Comm)) (mpi.Stats, error) {
	ts, err := LocalWorld(size, base)
	if err != nil {
		return mpi.Stats{}, err
	}
	return runWorld(ts, fn)
}

// runWorld runs fn on every endpoint of an established world and closes
// each endpoint once its rank returns (Run's contract).
func runWorld(ts []*Transport, fn func(c *mpi.Comm)) (mpi.Stats, error) {
	size := len(ts)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	perRank := make([]mpi.Stats, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			stats, err := mpi.RunRank(ts[rank], rank, fn)
			perRank[rank] = stats
			if err != nil {
				mu.Lock()
				// A real rank panic outranks the ErrAborted echoes it
				// causes in its peers.
				if _, isRank := err.(*mpi.RankError); isRank {
					if _, already := firstErr.(*mpi.RankError); !already {
						firstErr = err
					}
				} else if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
			ts[rank].Close()
		}(r)
	}
	wg.Wait()
	agg := mpi.Stats{Ranks: size, RecvBytes: make([]int64, size)}
	for r, s := range perRank {
		agg.Messages += s.Messages
		agg.Bytes += s.Bytes
		if len(s.RecvBytes) == size {
			agg.RecvBytes[r] = s.RecvBytes[r]
		}
	}
	return agg, firstErr
}

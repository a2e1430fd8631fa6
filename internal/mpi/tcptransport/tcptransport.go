// Package tcptransport is the multi-process TCP backend for the mpi
// runtime: an implementation of mpi.Transport in which every OS process
// owns exactly one rank and messages travel over a full mesh of TCP
// connections using the length-prefixed wire format documented in wire.go.
//
// # Rendezvous and mesh establishment
//
// Rank 0 listens on a well-known address (the rendezvous point). Every
// worker rank r > 0 first binds its own mesh listener, then dials rank 0
// and sends a hello frame carrying its rank and the address it can be
// reached at. Once all ranks have checked in, rank 0 replies to each with
// the full address table, and the rendezvous connections are kept as the
// rank-0 spokes of the mesh. Workers then complete the mesh directly: for
// a pair of workers (i, j) with 0 < i < j, rank j dials rank i's listener
// and introduces itself with an ident frame. The result is one duplex TCP
// connection per rank pair.
//
// # Failure detection and shutdown
//
// Each connection has a reader goroutine that demultiplexes data frames
// (into per-source unbounded FIFO inboxes) and control frames (barrier,
// heartbeat, abort, bye). A heartbeat is written on every connection at a
// quarter of Options.IdleTimeout, and a reader that sees no frame for a
// full IdleTimeout — or any connection error outside a graceful shutdown —
// aborts the local transport, which best-effort notifies the remaining
// peers with abort frames so the whole distributed job unwinds through the
// same abort path the in-process fabric uses. Graceful shutdown (Close)
// announces a bye frame on every connection before closing it, so peers
// distinguish a finished rank from a crashed one.
//
// Barriers are centralized: workers send barrier-enter to rank 0 and block
// until rank 0, having counted every rank, replies barrier-release.
package tcptransport

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"goparsvd/internal/mpi"
)

// Options configures one rank's endpoint of the TCP fabric.
type Options struct {
	// Rank is this process's rank in [0, Size).
	Rank int
	// Size is the world size.
	Size int
	// Rendezvous is rank 0's address. Rank 0 listens on it (unless
	// Listener is set); every other rank dials it.
	Rendezvous string
	// Listener, when set on rank 0, is the pre-bound rendezvous listener.
	// Binding first lets a launcher publish an ephemeral address (e.g.
	// 127.0.0.1:0) before New blocks waiting for workers.
	Listener net.Listener
	// ListenAddr is the bind address of this worker's mesh listener
	// (inbound connections from higher ranks). Defaults to 127.0.0.1:0;
	// set a routable host for cross-machine runs.
	ListenAddr string
	// Advertise overrides the address written into the rendezvous hello
	// (useful when the bind address, e.g. 0.0.0.0, is not dialable).
	Advertise string
	// DialTimeout bounds the whole rendezvous/handshake phase: dials,
	// hello/table/ident exchanges, and rank 0's wait for stragglers.
	// Default 30s.
	DialTimeout time.Duration
	// IdleTimeout is the failure-detection window: a connection with no
	// inbound frame for this long is declared dead and the transport
	// aborts. Heartbeats are emitted at IdleTimeout/4, so only a dead
	// peer, a partition, or a single message that cannot be transferred
	// within the window trips it. Default 2m.
	IdleTimeout time.Duration
}

func (o *Options) setDefaults() error {
	if o.Size < 1 {
		return fmt.Errorf("tcptransport: world size %d < 1", o.Size)
	}
	if o.Rank < 0 || o.Rank >= o.Size {
		return fmt.Errorf("tcptransport: rank %d out of range [0,%d)", o.Rank, o.Size)
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 30 * time.Second
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 2 * time.Minute
	}
	if o.ListenAddr == "" {
		o.ListenAddr = "127.0.0.1:0"
	}
	if o.Size > 1 && o.Rank > 0 && o.Rendezvous == "" {
		return fmt.Errorf("tcptransport: rank %d needs a rendezvous address", o.Rank)
	}
	if o.Size > 1 && o.Rank == 0 && o.Rendezvous == "" && o.Listener == nil {
		return fmt.Errorf("tcptransport: rank 0 needs a rendezvous address or listener")
	}
	return nil
}

// link is one live connection to a peer rank.
type link struct {
	peer int
	conn net.Conn
	wmu  sync.Mutex
	bw   *bufio.Writer
	wbuf []byte // frame-encoding scratch, reused under wmu
}

// inbox is the unbounded per-source FIFO of delivered data messages.
// Unboundedness is deliberate: the reader goroutine must never stall behind
// application backpressure, or control frames (barrier, abort) queued after
// a burst of data on the same connection would deadlock the fabric.
type inbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    []mpi.Message
	done bool
}

func newInbox() *inbox {
	b := &inbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *inbox) push(m mpi.Message) {
	b.mu.Lock()
	if !b.done {
		b.q = append(b.q, m)
		b.cond.Signal()
	}
	b.mu.Unlock()
}

// close marks the stream finished; messages already delivered remain
// receivable.
func (b *inbox) close() {
	b.mu.Lock()
	b.done = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (b *inbox) pop() (mpi.Message, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.q) == 0 && !b.done {
		b.cond.Wait()
	}
	if len(b.q) == 0 {
		return mpi.Message{}, false
	}
	m := b.q[0]
	b.q[0] = mpi.Message{}
	b.q = b.q[1:]
	return m, true
}

// Transport is one rank's endpoint of the TCP fabric. It implements
// mpi.Transport with the restriction that Send requires src == Rank and
// Recv requires dst == Rank — which is exactly how mpi.Comm drives it.
type Transport struct {
	rank, size  int
	idleTimeout time.Duration

	links   []*link  // indexed by peer rank; links[rank] == nil
	inboxes []*inbox // indexed by source rank

	// Centralized barrier state: rank 0 counts enters, workers await the
	// release. Capacities are sized so reader goroutines never block here
	// (each peer has at most one outstanding barrier frame).
	barEnter   chan struct{}
	barRelease chan struct{}

	abortCh   chan struct{}
	aborted   atomic.Bool
	closing   atomic.Bool
	closeOnce sync.Once
	stopPing  chan struct{}
	pingOnce  sync.Once
	wg        sync.WaitGroup

	msgsSent  atomic.Int64
	bytesSent atomic.Int64
	recvOwn   atomic.Int64
}

var _ mpi.Transport = (*Transport)(nil)

// New establishes this rank's endpoint of the fabric: it performs the
// rendezvous, completes the connection mesh, and starts the reader and
// heartbeat goroutines. It blocks until every rank is connected (bounded
// by Options.DialTimeout) — when New returns on every rank, the world is
// fully wired.
func New(opts Options) (*Transport, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	t := &Transport{
		rank:        opts.Rank,
		size:        opts.Size,
		idleTimeout: opts.IdleTimeout,
		links:       make([]*link, opts.Size),
		inboxes:     make([]*inbox, opts.Size),
		barEnter:    make(chan struct{}, opts.Size),
		barRelease:  make(chan struct{}, 1),
		abortCh:     make(chan struct{}),
		stopPing:    make(chan struct{}),
	}
	for r := range t.inboxes {
		if r != t.rank {
			t.inboxes[r] = newInbox()
		}
	}
	if t.size == 1 {
		return t, nil
	}
	deadline := time.Now().Add(opts.DialTimeout)
	var err error
	if t.rank == 0 {
		err = t.rendezvousRoot(opts, deadline)
	} else {
		err = t.rendezvousWorker(opts, deadline)
	}
	if err != nil {
		t.Abort()
		return nil, err
	}
	for _, l := range t.links {
		if l != nil {
			t.wg.Add(1)
			go t.reader(l)
		}
	}
	t.wg.Add(1)
	go t.heartbeat()
	return t, nil
}

// rendezvousRoot accepts one hello per worker, records the advertised mesh
// addresses, and answers each worker with the full table. The rendezvous
// connections become the rank-0 spokes of the mesh.
func (t *Transport) rendezvousRoot(opts Options, deadline time.Time) error {
	l := opts.Listener
	if l == nil {
		var err error
		l, err = net.Listen("tcp", opts.Rendezvous)
		if err != nil {
			return fmt.Errorf("tcptransport: rendezvous listen: %w", err)
		}
	}
	defer l.Close()
	if tl, ok := l.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	addrs := make([]string, t.size)
	for i := 0; i < t.size-1; i++ {
		conn, err := l.Accept()
		if err != nil {
			return fmt.Errorf("tcptransport: rank 0 waiting for %d more ranks: %w", t.size-1-i, err)
		}
		rank, addr, err := t.expectHello(conn, deadline)
		if err != nil {
			conn.Close()
			return err
		}
		if rank < 1 || rank >= t.size || t.links[rank] != nil {
			conn.Close()
			return fmt.Errorf("tcptransport: rendezvous hello from invalid or duplicate rank %d", rank)
		}
		addrs[rank] = addr
		t.links[rank] = newLink(rank, conn)
	}
	table := appendTable(nil, addrs)
	for r := 1; r < t.size; r++ {
		if err := t.writeRaw(t.links[r], table, deadline); err != nil {
			return fmt.Errorf("tcptransport: sending table to rank %d: %w", r, err)
		}
	}
	return nil
}

// rendezvousWorker checks in with rank 0, learns the address table, dials
// every lower worker and accepts every higher one.
func (t *Transport) rendezvousWorker(opts Options, deadline time.Time) error {
	// Bind the mesh listener before checking in, so the advertised address
	// is live by the time any peer reads the table. The highest rank
	// accepts no inbound connections and skips the listener entirely.
	var ml net.Listener
	advertise := opts.Advertise
	if t.rank < t.size-1 {
		var err error
		ml, err = net.Listen("tcp", opts.ListenAddr)
		if err != nil {
			return fmt.Errorf("tcptransport: mesh listen: %w", err)
		}
		defer ml.Close()
		if advertise == "" {
			advertise = ml.Addr().String()
		}
	}

	conn0, err := net.DialTimeout("tcp", opts.Rendezvous, time.Until(deadline))
	if err != nil {
		return fmt.Errorf("tcptransport: dialing rendezvous %s: %w", opts.Rendezvous, err)
	}
	t.links[0] = newLink(0, conn0)
	if err := t.writeRaw(t.links[0], appendHello(nil, t.rank, advertise), deadline); err != nil {
		return fmt.Errorf("tcptransport: sending hello: %w", err)
	}
	conn0.SetReadDeadline(deadline)
	kind, body, err := readFrame(conn0, new([4]byte))
	if err != nil || kind != kindTable {
		return fmt.Errorf("tcptransport: waiting for address table: kind=%d err=%v", kind, err)
	}
	addrs, err := decodeTable(body)
	if err != nil {
		return err
	}
	if len(addrs) != t.size {
		return fmt.Errorf("tcptransport: address table has %d entries, want %d", len(addrs), t.size)
	}
	conn0.SetReadDeadline(time.Time{})

	// Dial every lower worker; introduce ourselves with an ident frame.
	for peer := 1; peer < t.rank; peer++ {
		c, err := net.DialTimeout("tcp", addrs[peer], time.Until(deadline))
		if err != nil {
			return fmt.Errorf("tcptransport: dialing rank %d at %s: %w", peer, addrs[peer], err)
		}
		t.links[peer] = newLink(peer, c)
		if err := t.writeRaw(t.links[peer], appendIdent(nil, t.rank), deadline); err != nil {
			return fmt.Errorf("tcptransport: ident to rank %d: %w", peer, err)
		}
	}
	// Accept every higher worker.
	for need := t.size - 1 - t.rank; need > 0; need-- {
		if tl, ok := ml.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
		c, err := ml.Accept()
		if err != nil {
			return fmt.Errorf("tcptransport: rank %d waiting for %d more mesh peers: %w", t.rank, need, err)
		}
		c.SetReadDeadline(deadline)
		kind, body, err := readFrame(c, new([4]byte))
		if err != nil || kind != kindIdent {
			c.Close()
			return fmt.Errorf("tcptransport: bad mesh introduction: kind=%d err=%v", kind, err)
		}
		peer, err := decodeIdent(body)
		if err != nil {
			c.Close()
			return err
		}
		if peer <= t.rank || peer >= t.size || t.links[peer] != nil {
			c.Close()
			return fmt.Errorf("tcptransport: mesh ident from invalid or duplicate rank %d", peer)
		}
		c.SetReadDeadline(time.Time{})
		t.links[peer] = newLink(peer, c)
	}
	return nil
}

func newLink(peer int, conn net.Conn) *link {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &link{peer: peer, conn: conn, bw: bufio.NewWriterSize(conn, 1<<16)}
}

func (t *Transport) expectHello(conn net.Conn, deadline time.Time) (rank int, addr string, err error) {
	conn.SetReadDeadline(deadline)
	kind, body, err := readFrame(conn, new([4]byte))
	if err != nil {
		return 0, "", fmt.Errorf("tcptransport: reading hello: %w", err)
	}
	if kind != kindHello {
		return 0, "", fmt.Errorf("tcptransport: expected hello, got frame kind %d", kind)
	}
	conn.SetReadDeadline(time.Time{})
	return decodeHello(body)
}

// writeRaw writes a pre-encoded frame under the link's write lock.
func (t *Transport) writeRaw(l *link, frame []byte, deadline time.Time) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.conn.SetWriteDeadline(deadline)
	if _, err := l.bw.Write(frame); err != nil {
		return err
	}
	return l.bw.Flush()
}

// writeControl writes a bodyless frame with the steady-state write
// deadline.
func (t *Transport) writeControl(l *link, kind byte) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.conn.SetWriteDeadline(time.Now().Add(t.idleTimeout))
	l.wbuf = appendControl(l.wbuf[:0], kind)
	if _, err := l.bw.Write(l.wbuf); err != nil {
		return err
	}
	return l.bw.Flush()
}

// reader drains one connection, demultiplexing data into the peer's inbox
// and control frames into the barrier/abort machinery. Any error outside a
// graceful shutdown aborts the transport.
func (t *Transport) reader(l *link) {
	defer t.wg.Done()
	br := bufio.NewReaderSize(l.conn, 1<<16)
	var hdr [4]byte
	for {
		l.conn.SetReadDeadline(time.Now().Add(t.idleTimeout))
		kind, body, err := readFrame(br, &hdr)
		if err != nil {
			if t.closing.Load() || t.aborted.Load() {
				t.inboxes[l.peer].close()
				return
			}
			// EOF without a bye, a reset, or an idle timeout: the peer is
			// gone. Tear the world down.
			t.Abort()
			return
		}
		switch kind {
		case kindData:
			m, err := decodeData(body)
			if err != nil {
				t.Abort()
				return
			}
			t.recvOwn.Add(int64(8 * len(m.Data)))
			t.inboxes[l.peer].push(m)
		case kindPing:
			// Liveness only; resetting the read deadline was the point.
		case kindBarrierEnter:
			select {
			case t.barEnter <- struct{}{}:
			default:
				t.Abort() // >1 outstanding enter per peer: protocol violation
				return
			}
		case kindBarrierRelease:
			select {
			case t.barRelease <- struct{}{}:
			default:
				t.Abort()
				return
			}
		case kindAbort:
			t.Abort()
			return
		case kindBye:
			// Peer finished cleanly; whatever it sent stays receivable.
			t.inboxes[l.peer].close()
			return
		default:
			t.Abort()
			return
		}
	}
}

// heartbeat keeps every connection warm so silence means failure, not idle
// compute: a rank deep in a local factorization still pings its peers.
func (t *Transport) heartbeat() {
	defer t.wg.Done()
	tick := time.NewTicker(t.idleTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case <-t.stopPing:
			return
		case <-tick.C:
			for _, l := range t.links {
				if l == nil {
					continue
				}
				if err := t.writeControl(l, kindPing); err != nil {
					t.Abort()
					return
				}
			}
		}
	}
}

func (t *Transport) down() bool { return t.aborted.Load() || t.closing.Load() }

// Size returns the world size.
func (t *Transport) Size() int { return t.size }

// Rank returns this endpoint's rank.
func (t *Transport) Rank() int { return t.rank }

// Send serializes m onto the connection to dst. src must be this
// endpoint's own rank.
func (t *Transport) Send(src, dst int, m mpi.Message) error {
	if src != t.rank {
		return fmt.Errorf("tcptransport: rank %d cannot send as rank %d", t.rank, src)
	}
	if dst < 0 || dst >= t.size || dst == t.rank {
		return fmt.Errorf("tcptransport: send to invalid rank %d", dst)
	}
	if 8*len(m.Data)+dataHeaderLen+1 > maxFrame {
		// Reject over-sized payloads on the sending side: past the u32
		// length prefix they could not be framed (and a silently wrapped
		// length would desynchronize the stream), and failing here names
		// the offending rank instead of surfacing as a remote decode
		// abort on the receiver.
		return fmt.Errorf("tcptransport: message of %d floats exceeds the %d-byte frame limit",
			len(m.Data), maxFrame)
	}
	if t.down() {
		return mpi.ErrAborted
	}
	l := t.links[dst]
	l.wmu.Lock()
	l.conn.SetWriteDeadline(time.Now().Add(t.idleTimeout))
	l.wbuf = appendData(l.wbuf[:0], m)
	_, err := l.bw.Write(l.wbuf)
	if err == nil {
		err = l.bw.Flush()
	}
	l.wmu.Unlock()
	if err != nil {
		t.Abort()
		return mpi.ErrAborted
	}
	t.msgsSent.Add(1)
	t.bytesSent.Add(int64(8 * len(m.Data)))
	return nil
}

// Recv blocks for the next message from src. dst must be this endpoint's
// own rank.
func (t *Transport) Recv(dst, src int) (mpi.Message, error) {
	if dst != t.rank {
		return mpi.Message{}, fmt.Errorf("tcptransport: rank %d cannot receive as rank %d", t.rank, dst)
	}
	if src < 0 || src >= t.size || src == t.rank {
		return mpi.Message{}, fmt.Errorf("tcptransport: recv from invalid rank %d", src)
	}
	m, ok := t.inboxes[src].pop()
	if !ok {
		return mpi.Message{}, mpi.ErrAborted
	}
	return m, nil
}

// Barrier blocks until every rank has entered. Workers report to rank 0
// and wait for its release; rank 0 counts the reports.
func (t *Transport) Barrier(rank int) error {
	if rank != t.rank {
		return fmt.Errorf("tcptransport: rank %d cannot enter barrier as rank %d", t.rank, rank)
	}
	if t.size == 1 {
		return nil
	}
	if t.down() {
		return mpi.ErrAborted
	}
	if t.rank == 0 {
		for seen := 0; seen < t.size-1; seen++ {
			select {
			case <-t.barEnter:
			case <-t.abortCh:
				return mpi.ErrAborted
			}
		}
		for r := 1; r < t.size; r++ {
			if err := t.writeControl(t.links[r], kindBarrierRelease); err != nil {
				t.Abort()
				return mpi.ErrAborted
			}
		}
		return nil
	}
	if err := t.writeControl(t.links[0], kindBarrierEnter); err != nil {
		t.Abort()
		return mpi.ErrAborted
	}
	select {
	case <-t.barRelease:
		return nil
	case <-t.abortCh:
		return mpi.ErrAborted
	}
}

// Abort tears the fabric down: pending and future operations fail with
// mpi.ErrAborted, and live peers are notified best-effort with abort
// frames so the whole distributed job unwinds. Safe from any goroutine.
func (t *Transport) Abort() {
	if !t.aborted.CompareAndSwap(false, true) {
		return
	}
	close(t.abortCh)
	t.pingOnce.Do(func() { close(t.stopPing) })
	for _, l := range t.links {
		if l == nil {
			continue
		}
		// TryLock: a writer stuck on a dead connection holds wmu until its
		// deadline; closing the conn below unblocks it, and the abort
		// frame is best-effort anyway.
		if l.wmu.TryLock() {
			l.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
			l.wbuf = appendControl(l.wbuf[:0], kindAbort)
			l.bw.Write(l.wbuf)
			l.bw.Flush()
			l.wmu.Unlock()
		}
		l.conn.Close()
	}
	for _, b := range t.inboxes {
		if b != nil {
			b.close()
		}
	}
}

// Stats returns this endpoint's traffic counters. Only the owning rank's
// RecvBytes entry is populated; a launcher sums the per-process reports
// (launch.Session.Stats).
func (t *Transport) Stats() mpi.Stats {
	rb := make([]int64, t.size)
	rb[t.rank] = t.recvOwn.Load()
	return mpi.Stats{
		Ranks:     t.size,
		Messages:  t.msgsSent.Load(),
		Bytes:     t.bytesSent.Load(),
		RecvBytes: rb,
	}
}

// Close shuts the endpoint down gracefully after a successful run: a bye
// frame is announced on every connection, then the connections are closed
// and the reader and heartbeat goroutines are joined. Idempotent.
func (t *Transport) Close() error {
	t.closeOnce.Do(func() {
		t.closing.Store(true)
		t.pingOnce.Do(func() { close(t.stopPing) })
		if !t.aborted.Load() {
			for _, l := range t.links {
				if l == nil {
					continue
				}
				l.wmu.Lock()
				l.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
				l.wbuf = appendControl(l.wbuf[:0], kindBye)
				l.bw.Write(l.wbuf)
				l.bw.Flush()
				l.wmu.Unlock()
			}
		}
		for _, l := range t.links {
			if l != nil {
				l.conn.Close()
			}
		}
		for _, b := range t.inboxes {
			if b != nil {
				b.close()
			}
		}
		t.wg.Wait()
	})
	return nil
}

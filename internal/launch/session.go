package launch

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"goparsvd/internal/core"
	"goparsvd/internal/grid"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/mpi/tcptransport"
)

// SessionConfig describes one persistent worker fleet.
type SessionConfig struct {
	// Ranks is the number of worker processes.
	Ranks int
	// WorkerBin is the parsvd-worker binary; empty resolves through
	// ResolveWorker (PARSVD_WORKER, sibling, PATH, go-build fallback).
	WorkerBin string
	// Spec is the engine configuration every rank is started with, on its
	// command line (EngineSpec.Args).
	Spec EngineSpec
	// OpTimeout bounds each session operation round trip — one PUSH
	// scatter (the first one also finds a fleet that never came up), one
	// gather, the SHUTDOWN drain. Default 2m.
	OpTimeout time.Duration
	// Deadline, when nonzero, additionally caps startup and every
	// operation at an absolute time (see SetDeadline).
	Deadline time.Time
	// IdleTimeout is forwarded to the workers' transports (failure
	// detection window). Zero keeps the worker default.
	IdleTimeout time.Duration
	// Stderr receives the workers' stderr streams; default os.Stderr.
	// io.Discard sends them to /dev/null.
	Stderr io.Writer
}

// SessionStats is the launcher's cheap view of a session world: traffic
// totals summed across ranks plus the engine ingest counters, refreshed
// from the status piggybacked on every acknowledged operation — reading
// them costs no wire round trip.
type SessionStats struct {
	Ranks      int
	Messages   int64
	Bytes      int64
	Rows       int // global snapshot rows (summed per-rank blocks)
	Snapshots  int
	Iterations int
	// Ops counts the lockstep exchanges (one command frame to every rank,
	// one reply from each) the launcher has started.
	Ops int64
}

// Session is a persistent, sessionful worker world: cfg.Ranks parsvd-worker
// processes holding one live core engine each, fed real snapshot data over
// their stdin and queried over their stdout (see proto.go for the frame
// protocol). It is the process-fabric twin of the facade's in-process
// parallel engine: Push scatters row blocks, ModesSHA/Stats read the
// decomposition, Save gathers a facade-compatible checkpoint, Close
// shuts the fleet down cleanly.
//
// A Session is not safe for concurrent use; callers serialize (the parsvd
// facade holds its own mutex across every operation). Any failure — a
// worker death, a protocol violation, an engine error, an operation
// timeout — permanently fails the session: the remaining workers are
// killed immediately and every later operation reports the original
// error.
type Session struct {
	cfg     SessionConfig
	workers []*sessWorker

	parts []grid.Range // the first push's row split, nil until it is acknowledged

	// hardDeadline, when nonzero, caps every operation's deadline (a Fit
	// context deadline mapped down by the facade). Zero means OpTimeout
	// alone governs.
	hardDeadline time.Time

	// statuses is the latest status each rank acknowledged with; stats
	// sums them.
	statuses []SessionStatus
	stats    SessionStats
	ops      int64
	failed   error
	closed   bool
}

// sessFrame is one parsed reply (or read error) from a worker. A BLOB
// reply arrives decoded: state holds the checkpoint and body is nil.
type sessFrame struct {
	verb  byte
	body  []byte
	state core.State
	err   error
}

// sessWorker supervises one persistent rank process.
type sessWorker struct {
	rank  int
	cmd   *exec.Cmd
	stdin *os.File
	// scratch is the fixed buffer every block frame to this rank is
	// encoded through (writeBlockFrame).
	scratch []byte
	frames  chan sessFrame
	done    chan struct{} // closed once the process is reaped
	once    sync.Once
}

// StartSession wires the rank mesh and spawns the fleet, every rank with
// cfg.Spec on its command line, and returns without an exchange: the
// first Push is the fleet's first command, so a rank that refused its
// spec or died at boot fails that Push, with the ERR text it left. On a
// spawn failure the partial fleet is killed and reaped before the error
// returns.
func StartSession(cfg SessionConfig) (*Session, error) {
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("launch: session ranks = %d < 1", cfg.Ranks)
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 2 * time.Minute
	}
	if cfg.Stderr == nil {
		cfg.Stderr = os.Stderr
	}
	bin := cfg.WorkerBin
	if bin == "" {
		var err error
		if bin, err = ResolveWorker(); err != nil {
			return nil, err
		}
	}
	s := &Session{
		cfg:          cfg,
		workers:      make([]*sessWorker, cfg.Ranks),
		statuses:     make([]SessionStatus, cfg.Ranks),
		hardDeadline: cfg.Deadline,
	}
	if !cfg.Deadline.IsZero() && !cfg.Deadline.After(time.Now()) {
		return nil, fmt.Errorf("launch: session deadline exceeded before startup")
	}
	if err := s.spawnFleet(bin); err != nil {
		return nil, err
	}
	return s, nil
}

// command prepares one rank's worker process, told to adopt the mesh the
// launcher wires (spawnFleet) and given the engine spec. A discarded
// stderr stays nil, so the child writes to /dev/null; any other writer
// that is not a file costs os/exec a pipe and a copying goroutine per
// worker.
func (s *Session) command(bin string, rank int) *exec.Cmd {
	args := []string{
		"-rank", strconv.Itoa(rank),
		"-np", strconv.Itoa(s.cfg.Ranks),
		"-inherited-mesh",
	}
	if s.cfg.IdleTimeout > 0 {
		args = append(args, "-idle-timeout", s.cfg.IdleTimeout.String())
	}
	args = append(args, s.cfg.Spec.Args()...)
	cmd := exec.Command(bin, args...)
	if s.cfg.Stderr != io.Discard {
		cmd.Stderr = s.cfg.Stderr
	}
	return cmd
}

// newSessWorker supervises a started rank process whose session frames
// are written to stdin and read from stdout; both are closed once the
// process is reaped.
func newSessWorker(rank int, cmd *exec.Cmd, stdin *os.File, stdout io.ReadCloser) *sessWorker {
	w := &sessWorker{
		rank:    rank,
		cmd:     cmd,
		stdin:   stdin,
		scratch: make([]byte, blockScratch),
		frames:  make(chan sessFrame, 4),
		done:    make(chan struct{}),
	}
	go w.readLoop(stdout)
	return w
}

// readLoop parses the worker's stdout frames until the stream ends, then
// reaps the process. Lockstep means at most one reply is ever in flight,
// so the buffered channel never blocks a healthy worker; a misbehaving
// one is throttled here and killed by the launcher's next deadline.
func (w *sessWorker) readLoop(stdout io.ReadCloser) {
	defer close(w.done)
	br := bufio.NewReaderSize(stdout, 1<<16)
	for {
		fr, err := readReply(br)
		if err != nil {
			waitErr := w.cmd.Wait()
			w.stdin.Close()
			stdout.Close()
			if err == io.EOF && waitErr != nil {
				err = fmt.Errorf("worker exited: %w", waitErr)
			} else if err == io.EOF {
				err = fmt.Errorf("worker closed its session stream")
			}
			w.frames <- sessFrame{err: err}
			return
		}
		w.frames <- fr
	}
}

// readReply reads one reply frame. A BLOB body — a SAVE checkpoint — is
// decoded straight off the stream (readBlobState), so the launcher never
// holds the checkpoint as bytes; a body it refuses comes back as the
// frame's err, with the stream still framed. The error result is a
// stream that can no longer be read.
func readReply(r io.Reader) (sessFrame, error) {
	verb, n, err := tcptransport.ReadFrameHeader(r)
	if err != nil {
		return sessFrame{}, err
	}
	if verb == SessBlob {
		st, refused, err := readBlobState(r, n)
		return sessFrame{verb: verb, state: st, err: refused}, err
	}
	body, err := tcptransport.ReadFrameBody(r, n)
	return sessFrame{verb: verb, body: body}, err
}

// readBlobState decodes the checkpoint that is exactly the next n bytes
// of r (core.ReadStateExact, so what it reserves is bounded by n). A body
// that is not exactly one checkpoint is refused, and its unread rest is
// drained so the next frame reads from its own start; err reports a
// stream that failed while the body was read or drained.
func readBlobState(r io.Reader, n int) (st core.State, refused, err error) {
	lr := &io.LimitedReader{R: r, N: int64(n)}
	st, refused = core.ReadStateExact(lr, n)
	if refused == nil {
		return st, nil, nil
	}
	if _, err = io.Copy(io.Discard, lr); err == nil && lr.N > 0 {
		err = io.ErrUnexpectedEOF
	}
	return core.State{}, fmt.Errorf("launch: SAVE checkpoint: %w", refused), err
}

// await returns the worker's next frame, or a timeout error at deadline.
func (w *sessWorker) await(deadline time.Time) sessFrame {
	select {
	case fr := <-w.frames:
		return fr
	case <-time.After(time.Until(deadline)):
		return sessFrame{err: fmt.Errorf("timeout waiting for worker reply")}
	}
}

func (w *sessWorker) kill() {
	w.once.Do(func() {
		if w.cmd.Process != nil {
			w.cmd.Process.Kill()
		}
	})
}

// op runs one lockstep exchange: the command frame is written to every
// rank concurrently (collective commands must reach all ranks before any
// reply is awaited, or the fleet would deadlock inside its collectives),
// then exactly one reply per rank is collected: OK, or BLOB from rank 0
// to SAVE. write writes the command frame to one rank; nil writes an empty
// body. The deadline bounds both the command writes and the replies. Any
// failure permanently fails the session and kills the fleet.
func (s *Session) op(verb byte, write func(w *sessWorker) error) ([]sessFrame, error) {
	if s.failed != nil {
		return nil, s.failed
	}
	if s.closed {
		return nil, fmt.Errorf("launch: session is closed")
	}
	deadline := time.Now().Add(s.cfg.OpTimeout)
	if !s.hardDeadline.IsZero() && s.hardDeadline.Before(deadline) {
		// Already past the hard deadline: refuse before any frame is
		// written — no rank has seen the command, so the fleet stays
		// consistent and the session is NOT poisoned (the caller's
		// context expired, nothing failed).
		if !s.hardDeadline.After(time.Now()) {
			return nil, fmt.Errorf("launch: %s: deadline exceeded before the operation started", verbName(verb))
		}
		deadline = s.hardDeadline
	}

	s.ops++
	writeErrs := make([]error, len(s.workers))
	var wg sync.WaitGroup
	for r, w := range s.workers {
		wg.Add(1)
		go func(r int, w *sessWorker) {
			defer wg.Done()
			// The deadline bounds the write too: a rank that stops reading
			// its stdin would otherwise block a frame larger than its pipe
			// forever. Where the pipe cannot be polled the write goes
			// unbounded.
			if err := w.stdin.SetWriteDeadline(deadline); err != nil && !errors.Is(err, os.ErrNoDeadline) {
				writeErrs[r] = err
				return
			}
			if write == nil {
				writeErrs[r] = tcptransport.WriteFrame(w.stdin, verb, nil)
			} else {
				writeErrs[r] = write(w)
			}
		}(r, w)
	}
	wg.Wait()
	for r, err := range writeErrs {
		if err == nil {
			continue
		}
		err = fmt.Errorf("launch: %s to rank %d: %w", verbName(verb), r, err)
		// A rank that exited before it read the command (a refused spec,
		// a mesh it could not adopt) said why in an ERR frame: that is the
		// cause, the broken pipe only its symptom.
		if rr, body := s.reap(); body != nil {
			err = fmt.Errorf("launch: rank %d failed during %s: %s", rr, verbName(verb), body)
		}
		return nil, s.fail(err)
	}

	// The first failure of the most telling kind wins: a rank's own ERR
	// (kind 3) names the root cause, so it beats the EOFs, timeouts and
	// stray replies (kind 2) of the peers it took down, and those beat an
	// ERR that only echoes the abort (kind 1): a SIGKILLed rank says
	// nothing, and its EOF is the cause.
	frames := make([]sessFrame, len(s.workers))
	var firstErr error
	firstKind := 0
	for r, w := range s.workers {
		fr := w.await(deadline)
		want := SessOK
		if verb == SessSave && r == 0 {
			want = SessBlob
		}
		var err error
		var kind int
		switch {
		case fr.err != nil:
			err, kind = fmt.Errorf("launch: rank %d during %s: %w", r, verbName(verb), fr.err), 2
		case fr.verb == SessErr:
			err, kind = fmt.Errorf("launch: rank %d failed during %s: %s", r, verbName(verb), fr.body), 3
			if abortEcho(fr.body) {
				kind = 1
			}
		case fr.verb != want:
			err, kind = fmt.Errorf("launch: rank %d replied %s to %s", r, verbName(fr.verb), verbName(verb)), 2
		}
		if kind > firstKind {
			firstErr, firstKind = err, kind
		}
		frames[r] = fr
	}
	if firstErr != nil {
		return nil, s.fail(firstErr)
	}
	s.absorbStatuses(frames)
	return frames, nil
}

// absorbStatuses records the statuses piggybacked on OK replies, rank by
// rank, and refreshes the cached SessionStats from the latest status of
// every rank, so Stats() stays wire-free. A rank that answered with
// something else (SAVE leaves rank 0 replying BLOB) keeps its last status.
func (s *Session) absorbStatuses(frames []sessFrame) {
	for r, fr := range frames {
		if fr.verb != SessOK {
			continue
		}
		if status, err := DecodeStatus(fr.body); err == nil {
			s.statuses[r] = status // stale counters beat failing a healthy data path
		}
	}
	st := SessionStats{Ranks: len(s.workers)}
	for _, status := range s.statuses {
		st.Messages += status.Messages
		st.Bytes += status.BytesSent
		st.Rows += status.Rows
	}
	// Every rank's ingest counters advance in lockstep; rank 0's are the
	// reference.
	st.Snapshots, st.Iterations = s.statuses[0].Snapshots, s.statuses[0].Iterations
	s.stats = st
}

// fail marks the session permanently failed and kills the fleet. The
// original error sticks: later operations keep reporting it.
func (s *Session) fail(err error) error {
	if s.failed == nil {
		s.failed = err
	}
	s.reap()
	return s.failed
}

// reap kills every worker and waits for the processes to be collected,
// draining any frames still in flight so the reader goroutines can exit.
// After reap returns, the session holds no processes and no goroutines.
// It reports the first ERR body among the drained frames that is not an
// abort echo, and its rank (nil when none).
func (s *Session) reap() (rank int, errBody []byte) {
	for _, w := range s.workers {
		if w != nil {
			w.kill()
		}
	}
	for r, w := range s.workers {
		if w == nil {
			continue
		}
		if body := w.drain(); body != nil && errBody == nil && !abortEcho(body) {
			rank, errBody = r, body
		}
	}
	return rank, errBody
}

// abortEcho reports whether an ERR body only echoes the abort a peer's
// failure caused, which says less than that failure.
func abortEcho(body []byte) bool { return string(body) == mpi.ErrAborted.Error() }

// drain consumes frames until the worker's reader goroutine has exited
// and the process is reaped, then empties the leftovers. It returns the
// body of the first ERR frame among them, nil when none.
func (w *sessWorker) drain() (errBody []byte) {
	for {
		var fr sessFrame
		select {
		case fr = <-w.frames:
		case <-w.done:
			select {
			case fr = <-w.frames:
			default:
				return errBody
			}
		}
		if fr.verb == SessErr && errBody == nil {
			errBody = fr.body
		}
	}
}

// Push scatters one global snapshot batch across the fleet: rows are
// partitioned contiguously (the same grid.Partition split the in-process
// parallel backend uses, so the two backends are bit-compatible) and each
// rank receives exactly its block, written straight from a row view of b
// through the rank's fixed scratch buffer — no per-rank body is built.
// The first Push pins the global row count and seeds the decomposition;
// later pushes stream.
//
// The caller validates the batch (the parsvd facade does): it is
// non-empty and finite, has the first batch's row count, and a first
// batch has at least one row per rank. A worker refuses a non-finite
// block, which fails the session.
func (s *Session) Push(b *mat.Dense) error {
	return s.scatter(SessPush, b, func(w *sessWorker, rows *mat.Dense) error {
		if s.parts == nil {
			// Every later batch has this shape: a pipe that holds the
			// whole frame takes it in one write.
			growPipe(w.stdin, pushFrameLen(rows))
		}
		return writeBlockFrame(w.stdin, w.scratch, rows)
	})
}

// PushSketch scatters one compressed snapshot batch: each rank receives
// its row block of the orthonormal sketch basis q (Push's split) plus the
// full L×B projection sk, and rebuilds its row block of the batch as
// Q_r·S before entering the same collective update PUSH drives. Only
// L·(M_r+B) floats cross the wire per rank instead of the raw M_r×B
// block. The caller validates the pair as Push's caller does the batch,
// its product included (the parsvd facade rebuilds every rank's block to
// the worker's bits and checks it). A worker refuses a block that is not
// finite, which fails the session.
func (s *Session) PushSketch(q, sk *mat.Dense) error {
	return s.scatter(SessPushSketch, q, func(w *sessWorker, rows *mat.Dense) error {
		return writeFactorPairFrame(w.stdin, w.scratch, rows, sk)
	})
}

// scatter runs one push exchange: write writes each rank's frame from a
// no-copy view of its grid.Partition rows of m, a first push's split
// pinned for every later one.
func (s *Session) scatter(verb byte, m *mat.Dense, write func(w *sessWorker, rows *mat.Dense) error) error {
	parts := s.parts
	if parts == nil {
		parts = grid.Partition(m.Rows(), s.cfg.Ranks)
	}
	_, err := s.op(verb, func(w *sessWorker) error {
		var rows mat.Dense
		m.ViewRows(parts[w.rank].Start, parts[w.rank].End, &rows)
		return write(w, &rows)
	})
	if err == nil {
		s.parts = parts
	}
	return err
}

// ModesSHA gathers the global mode matrix at rank 0 (a collective) and
// returns its SHA-256 fingerprint — dims plus row-major IEEE-754 bits,
// the HashModes digest of the assembled M×K matrix — and the singular
// values rank 0 reports beside it, bit for bit, in one round trip.
func (s *Session) ModesSHA() (sha string, singular []float64, err error) {
	frames, err := s.op(SessModesSHA, nil)
	if err != nil {
		return "", nil, err
	}
	status, err := DecodeStatus(frames[0].body)
	if err != nil {
		return "", nil, s.fail(fmt.Errorf("launch: rank 0 MODES-SHA reply: %w", err))
	}
	if status.ModesSHA == "" || len(status.SpectrumBits) == 0 {
		return "", nil, s.fail(fmt.Errorf("launch: rank 0 reported no modes hash or spectrum"))
	}
	return status.ModesSHA, status.Spectrum(), nil
}

// Stats returns the cached world counters (refreshed by every acknowledged
// operation); it never touches the wire.
func (s *Session) Stats() SessionStats {
	st := s.stats
	st.Ranks = s.cfg.Ranks
	st.Ops = s.ops
	return st
}

// Save gathers the global state at rank 0 (a collective) and returns it
// as the facade-compatible checkpoint rank 0 sends: the serial-format
// bytes parsvd.Load reads, decoded off the wire as they arrive
// (core.ReadStateExact), so the checkpoint is checked like any from
// outside and never held as bytes. The State holds the gathered M×K
// modes, the spectrum and the counters. The decomposition keeps streaming
// afterwards.
func (s *Session) Save() (core.State, error) {
	frames, err := s.op(SessSave, nil)
	if err != nil {
		return core.State{}, err
	}
	return frames[0].state, nil
}

// Close shuts the fleet down: a SHUTDOWN round trip (barrier, transport
// teardown, acknowledgment) followed by a bounded wait for every process
// to exit; stragglers are killed. Closing a failed session just reaps it.
// Close is idempotent.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	if s.failed != nil {
		s.closed = true
		s.reap()
		return nil
	}
	_, err := s.op(SessShutdown, nil)
	s.closed = true
	if err != nil {
		return err // op already reaped via fail
	}
	deadline := time.Now().Add(s.cfg.OpTimeout)
	for _, w := range s.workers {
		select {
		case <-w.done:
		case <-time.After(time.Until(deadline)):
			w.kill()
			<-w.done
		}
	}
	return nil
}

// SetDeadline caps every subsequent operation's round-trip deadline at t
// (in addition to OpTimeout); the zero time removes the cap. The facade
// maps a Fit context deadline here, restoring "ctx bounds the whole
// distributed run" semantics: an operation that would start past the
// deadline is refused cleanly before any frame is written (the session
// stays healthy), while one that is mid-wire when the deadline hits
// times out, kills the fleet and fails the session — a half-acknowledged
// collective cannot be resynchronized.
func (s *Session) SetDeadline(t time.Time) { s.hardDeadline = t }

// WorkerPIDs reports the fleet's process IDs in rank order (fault
// injection and diagnostics).
func (s *Session) WorkerPIDs() []int {
	pids := make([]int, len(s.workers))
	for r, w := range s.workers {
		if w != nil && w.cmd.Process != nil {
			pids[r] = w.cmd.Process.Pid
		}
	}
	return pids
}

// Failed reports the sticky session failure, nil while healthy.
func (s *Session) Failed() error { return s.failed }

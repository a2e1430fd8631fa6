package parsvd

import (
	"fmt"
	"time"

	"goparsvd/internal/core"
	"goparsvd/internal/launch"
	"goparsvd/internal/mat"
)

// distEngine is ParSVD over a persistent multi-process worker world: one
// parsvd-worker OS process per rank on local sockets, held open across
// operations exactly like the in-process parallel engine holds its rank
// goroutines. The facade feeds global batches; the engine's session
// scatters row blocks over the workers' stdin (the framed protocol in
// internal/launch), the workers run the collective streaming update among
// themselves, and queries (spectrum, modes fingerprint, checkpoint
// gather) come back over their stdout.
//
// The fleet is spawned lazily on the first push — constructing a
// Distributed SVD costs nothing until data arrives — and that push is the
// fleet's first exchange, so a fleet that never came up fails it as a
// failed start: nothing was ingested, the fleet is reaped and the next
// push spawns a fresh one. After that, any session failure (a worker
// death, an engine error on a rank, a protocol violation, an operation
// timeout) kills the remaining workers at once and returns an error
// wrapping ErrEngineFailed, with which SVD refuses every later operation.
// The engine gets input SVD has already checked.
type distEngine struct {
	cfg  config
	sess *launch.Session
	// fed is set once a push reached the fleet: a session fault after
	// that kills a live stream, one before it is a failed start.
	fed bool
	// deadline is the Fit context deadline currently in force (zero
	// outside a deadline-bearing Fit): it caps fleet startup and every
	// wire round trip, so a ctx deadline bounds the whole distributed
	// run instead of only being observed between batches.
	deadline time.Time
}

func newDistEngine(cfg config) *distEngine { return &distEngine{cfg: cfg} }

// start spawns the worker fleet, each rank with the engine spec on its
// command line. A spawn failure (no worker binary, no descriptors) is a
// failed start (ErrStartFailed) that does not retire the engine — nothing
// has been ingested, so the next push may retry. A live fleet is kept.
func (d *distEngine) start() error {
	if d.sess != nil {
		return nil
	}
	sess, err := launch.StartSession(launch.SessionConfig{
		Ranks:     d.cfg.ranks,
		WorkerBin: d.cfg.transport.WorkerBin,
		Spec: launch.EngineSpec{
			K:          d.cfg.opts.K,
			FF:         d.cfg.opts.FF,
			LowRank:    d.cfg.opts.LowRank,
			Oversample: d.cfg.opts.RLA.Oversample,
			PowerIters: d.cfg.opts.RLA.PowerIters,
			Seed:       d.cfg.opts.RLA.Seed,
		},
		OpTimeout:   d.cfg.transport.Timeout,
		Deadline:    d.deadline,
		IdleTimeout: d.cfg.transport.IdleTimeout,
		Stderr:      d.cfg.transport.Stderr,
	})
	if err != nil {
		return fmt.Errorf("%w: %w", ErrStartFailed, err)
	}
	d.sess = sess
	return nil
}

// sessionErr classifies a session operation's outcome. Success marks the
// fleet fed. A clean pre-wire refusal (an expired Fit deadline before any
// frame was written) leaves the still-healthy session — and this engine —
// fully usable. A fault on the first push, which is the fleet's first
// exchange, is a failed start (ErrStartFailed; nothing was ingested: the
// session is dropped and the next push spawns afresh). Any later fault
// killed a live stream and wraps ErrEngineFailed.
func (d *distEngine) sessionErr(op string, err error) error {
	switch {
	case err == nil:
		d.fed = true // SVD reads only after a push, so a push sets this first
		return nil
	case d.sess.Failed() == nil:
		return fmt.Errorf("parsvd: %s: %w", op, err)
	case !d.fed:
		d.sess.Close() // reaped already; this only marks it closed
		d.sess = nil
		return fmt.Errorf("%w: %w", ErrStartFailed, err)
	default:
		return fmt.Errorf("%w: %s: %w", ErrEngineFailed, op, err)
	}
}

// setDeadline maps a Fit context deadline onto the session's hard
// operation cap (zero clears it). Implements the deadlineAware seam Fit
// uses; Push/Result outside a Fit run under TransportConfig.Timeout
// alone.
func (d *distEngine) setDeadline(t time.Time) {
	d.deadline = t
	if d.sess != nil {
		d.sess.SetDeadline(t)
	}
}

func (d *distEngine) push(b *mat.Dense) error {
	if err := d.start(); err != nil {
		return err
	}
	return d.sessionErr("distributed update", d.sess.Push(b))
}

// pushSketch ships the factor pair to the fleet instead of the rebuilt
// batch: each rank receives its row block of Q plus the full S and
// rebuilds its block of the batch worker-side, to the bits SVD checked,
// so only the pair crosses the wire.
func (d *distEngine) pushSketch(q, s, _ *mat.Dense) error {
	if err := d.start(); err != nil {
		return err
	}
	return d.sessionErr("distributed sketched update", d.sess.PushSketch(q, s))
}

func (d *distEngine) result() (*Result, error) {
	sha, singular, err := d.sess.ModesSHA()
	if err != nil {
		return nil, d.sessionErr("fingerprinting distributed modes", err)
	}
	st := d.sess.Stats()
	// Modes stays nil: the M×K matrix lives row-distributed in the worker
	// processes. ModesSHA256 fingerprints it bit-exactly: MODES-SHA
	// gathers the rank blocks at rank 0, which hashes them where they lie
	// and replies with the digest and the spectrum, so one round trip
	// reads the whole Result and only the hash crosses stdout. state()
	// ships the modes themselves when the caller saves or merges.
	return &Result{
		Singular:    singular,
		Iterations:  st.Iterations,
		Snapshots:   st.Snapshots,
		ModesSHA256: sha,
	}, nil
}

// resultOf is result() built from a state the fleet already shipped (a
// Fit's checkpoint): the spectrum, the counters and the modes' fingerprint
// come from st with no further round trip, and Modes stays nil as in
// result().
func (d *distEngine) resultOf(st core.State) *Result {
	return &Result{
		Singular:    append([]float64(nil), st.Singular...),
		Iterations:  st.Iterations,
		Snapshots:   st.Snapshots,
		ModesSHA256: launch.HashModes(st.Modes),
	}
}

// state gathers the global state at rank 0, which ships it back as a
// checkpoint (SAVE). The session decodes those bytes off the wire and
// checks them like any checkpoint from outside.
func (d *distEngine) state() (core.State, error) {
	st, err := d.sess.Save()
	if err != nil {
		return core.State{}, d.sessionErr("gathering distributed checkpoint", err)
	}
	return st, nil
}

func (d *distEngine) stats() Stats {
	st := Stats{Ranks: d.cfg.ranks}
	if d.sess != nil {
		ss := d.sess.Stats()
		st.Messages, st.Bytes = ss.Messages, ss.Bytes
	}
	return st
}

func (d *distEngine) close() error {
	if d.sess == nil {
		return nil
	}
	return d.sess.Close()
}

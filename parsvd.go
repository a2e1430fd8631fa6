// Package parsvd is the public face of goparsvd, a Go reproduction of the
// PyParSVD library (Maulik & Mengaldo, "PyParSVD: A streaming, distributed
// and randomized singular-value-decomposition library", SC 2021). It
// computes the truncated SVD of a snapshot matrix that arrives batch by
// batch, optionally distributed across ranks and optionally with
// randomized linear algebra inside.
//
// One constructor is the only way in:
//
//	svd, err := parsvd.New(parsvd.WithModes(10), parsvd.WithForgetFactor(0.95))
//	if err != nil { ... }
//	res, err := svd.Fit(ctx, parsvd.FromMatrix(snapshots, 100))
//
// Every knob is a functional option and every misconfiguration is an
// error returned by New — nothing on the public path panics. The options
// map one-to-one onto the paper's symbols:
//
//   - WithModes(k) is K, the truncation rank: the number of left singular
//     vectors (POD modes) retained by every update (paper §3.1).
//   - WithForgetFactor(ff) is ff ∈ (0, 1] of Algorithm 1 (Levy &
//     Lindenbaum), down-weighting past batches; 1.0 reproduces the
//     one-shot SVD, the paper's experiments use 0.95.
//   - WithLowRank(...) turns on the paper's §3.3 randomization: every
//     dense SVD in the pipeline is replaced by the Halko–Martinsson–Tropp
//     randomized SVD. The optional RLA argument sets the oversampling p,
//     the power-iteration count q and the sketch seed.
//   - WithBackend selects the execution mode: Serial is ParSVD_Serial,
//     Parallel is ParSVD_Parallel in this process — the serial engine
//     whose QR is the paper's distributed TSQR (Listing 4) over the row
//     blocks the ranks would hold — and Distributed runs ParSVD_Parallel
//     with one OS process per rank over local sockets — a persistent
//     worker fleet fed real snapshot data over the wire, interchangeable
//     with the other two backends and bit-identical to Parallel.
//   - WithRanks(n) is the MPI world size for the non-serial backends.
//
// The non-serial backends seed from the first batch as the serial one
// does, with the streaming update itself (there through the distributed
// QR of the paper's Listing 4) rather than the paper's APMOS
// initialization, whose gather truncation r1 therefore has no option.
//
// Data enters through the Source abstraction — an in-memory matrix
// (FromMatrix), a batch-generator function (FromBatches), a self-
// describing NetCDF-style container file (FromNetCDF), or a deterministic
// benchmark workload (FromWorkload) — via the context-aware Fit loop, or
// incrementally through Push. Results carry the global modes, the
// spectrum and the iteration counters regardless of backend, and Save /
// Load round-trip the full streaming state for checkpoint/restart.
package parsvd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"goparsvd/internal/core"
	"goparsvd/internal/mat"
)

// Result is the outcome of a decomposition, identical in shape across
// backends.
//
// Aliasing: every reference field of a Result returned by SVD.Result (or
// Fit) is a deep copy owned by the caller — the engine-internal storage
// that backs the decomposition is recycled between streaming updates and
// is never exposed here. Mutating a Result therefore cannot corrupt the
// SVD, and a later Push cannot change a Result already handed out. To fan
// one Result out to multiple goroutines that may each mutate it, give
// each its own Clone.
type Result struct {
	// Modes is the full M×K matrix of truncated left singular vectors
	// (the POD modes) of the global state, merged across shards for
	// WithShards. It is nil
	// for the Distributed backend, whose modes stay row-distributed in
	// the worker processes: ModesSHA256 fingerprints them, and Save,
	// Merge and WithShards gather them when they need the matrix.
	Modes *Matrix
	// Singular holds the truncated singular values in descending order.
	Singular []float64
	// Iterations is the number of streaming updates performed (the
	// Initialize batch is not counted).
	Iterations int
	// Snapshots is the total number of ingested snapshot columns.
	Snapshots int
	// ModesSHA256 fingerprints the gathered mode matrix of a Distributed
	// run (dims plus row-major IEEE-754 bits), so runs can be compared
	// bit-for-bit across transports without shipping the matrix.
	ModesSHA256 string
}

// Clone deep-copies the Result: the copy shares no storage with the
// original, so one Result can be handed to arbitrarily many concurrent
// readers (or mutators) as long as each works on its own Clone. A nil
// receiver clones to nil.
func (r *Result) Clone() *Result {
	if r == nil {
		return nil
	}
	out := *r
	out.Singular = append([]float64(nil), r.Singular...)
	if r.Modes != nil {
		out.Modes = r.Modes.Clone()
	}
	return &out
}

// ErrEngineFailed marks an SVD whose backend is permanently failed: an
// engine returned an error on some rank, a collective aborted or a worker
// died, and the streaming state can no longer be trusted or advanced. The
// SVD keeps that error: every later Fit, Push, PushSketch, Result, Save,
// Merge, Coefficients and Reconstruct returns it, and the only recovery
// is a new SVD (or Load from a checkpoint). Servers use it to distinguish a dead engine (their fault,
// HTTP 5xx) from a bad request.
var ErrEngineFailed = errors.New("parsvd: engine permanently failed")

// ErrStartFailed marks a Distributed worker fleet that never came up: the
// worker processes could not be spawned, or one of them failed the
// seeding push, which is a fleet's first exchange. Nothing was ingested,
// so the engine is not poisoned (the error does not wrap ErrEngineFailed)
// and the next push spawns a fresh fleet; for a server it is still its own
// fault, not the caller's.
var ErrStartFailed = errors.New("parsvd: starting distributed worker fleet")

// ShardInfo is the public face of a shard provenance mark: this model
// holds shard Index of Count disjoint snapshot subsets of one logical
// stream (WithShard). The zero value means "whole stream / unmarked".
type ShardInfo struct {
	Index int
	Count int
}

// IsZero reports an absent provenance mark.
func (si ShardInfo) IsZero() bool { return si == ShardInfo{} }

// String renders "index/count" ("" for the zero mark).
func (si ShardInfo) String() string {
	if si.IsZero() {
		return ""
	}
	return fmt.Sprintf("%d/%d", si.Index, si.Count)
}

func shardInfo(id core.ShardID) ShardInfo {
	return ShardInfo{Index: id.Index, Count: id.Count}
}

// Configuration echoes the options an SVD was built with — including one
// rebuilt by Load, whose options come from the checkpoint. It exists so
// callers wrapping SVDs (the serving layer) can report or persist the
// effective configuration without holding on to the original Option list.
type Configuration struct {
	Modes        int
	ForgetFactor float64
	Backend      Backend
	Ranks        int
	LowRank      bool
	// RLA is the sketch tuning; zero when LowRank is false or the
	// defaults are in effect.
	RLA RLA
	// Shards is the WithShards map-reduce width (0 or 1 for an
	// unsharded fit).
	Shards int
	// Shard is the WithShard provenance mark (zero for a whole-stream
	// model, and for a merged model — a merge retires the mark into the
	// absorbed set). WriteCheckpoint stamps it into the checkpoints it
	// produces, so a published view exported over HTTP carries the same
	// provenance a Save would.
	Shard ShardInfo
	// Sketched reports WithSketchedPush; Sketch echoes its effective
	// configuration (MaxRank defaulted), zero when Sketched is false.
	Sketched bool
	Sketch   SketchConfig
}

// Configuration reports the effective options of this SVD. A merge can
// change the backend (a merged model always continues serially), so the
// report reflects the SVD's current state, not just its construction.
func (s *SVD) Configuration() Configuration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Configuration{
		Modes:        s.cfg.opts.K,
		ForgetFactor: s.cfg.opts.FF,
		Backend:      s.cfg.backend,
		Ranks:        s.cfg.ranks,
		LowRank:      s.cfg.opts.LowRank,
		RLA:          s.cfg.opts.RLA,
		Shards:       s.cfg.shards,
		Shard:        shardInfo(s.cfg.shard),
		Sketched:     s.cfg.sketchOn,
		Sketch:       s.cfg.sketch,
	}
}

// Stats is the cheap introspection surface of an SVD: configuration,
// ingest counters and inter-rank traffic. Reading it never gathers modes
// or runs a collective, so it is safe to poll at serving frequency.
type Stats struct {
	// Backend and K echo the configuration (WithBackend, WithModes).
	Backend Backend
	K       int
	// Ranks is the world size (1 for the serial backend).
	Ranks int
	// Rows is the snapshot row count M, 0 until the first batch arrives.
	Rows int
	// Snapshots counts the ingested snapshot columns.
	Snapshots int
	// Updates counts the state-changing updates applied (the Initialize
	// batch included): a monotone version counter for "has anything
	// changed since I last looked".
	Updates int64
	// Messages and Bytes summarize the inter-rank traffic of a
	// distributed run. They stay zero on the Serial and Parallel
	// backends, which run in this process: Parallel's ranks are row
	// blocks of one engine and send no messages.
	Messages int64
	Bytes    int64
	// PushedBytes counts the logical float64 payload of every ingested
	// batch (8·M·B per push) on every backend, so serial, parallel and
	// distributed models report comparable ingest volume. WireBytes
	// counts what actually crossed into the engine: equal to PushedBytes
	// for raw pushes, the compressed factor-pair size for sketched ones
	// (WithSketchedPush / PushSketch) — the gap between the two is the
	// measured wire saving. SketchedPushes counts the pushes that
	// traveled compressed.
	PushedBytes    int64
	WireBytes      int64
	SketchedPushes int64
	// Shard is the WithShard provenance mark: this model is one
	// shard-local fit of a partitioned stream. Zero for whole-stream
	// models and for merged models (the mark retires into the absorbed
	// set on the first merge).
	Shard ShardInfo
	// Absorbed counts the shard marks this model has absorbed through
	// merges: > 0 identifies a merged (reduced) model and says how many
	// marked shards it is the union of.
	Absorbed int
}

// engine is the backend-side contract behind SVD. Serial and Parallel
// hold their streaming state in this process, WithShards in its
// sub-engines and Distributed in a persistent worker fleet, all behind
// the same four operations. state is the one read of the decomposition:
// Result, Save, Fit's checkpoint, Merge and the WithShards reduction are
// built on it, and every checkpoint is a State encoded by core.WriteState
// in saveLocked.
//
// SVD owns the push contract. An engine gets only batches and pairs it
// has checked (checkBatch and the row split, a pair's rebuild included),
// reads only after data, and nothing at all once an operation returned
// an error wrapping ErrEngineFailed: SVD then retires the engine and
// refuses every later operation itself.
type engine interface {
	push(b *mat.Dense) error
	// pushSketch ingests a, the checked rebuild of the pair (q, s): the
	// in-process engines push a, the Distributed one ships the pair.
	pushSketch(q, s, a *mat.Dense) error
	// state reports the global decomposition: the modes (mode-major
	// ModeBlocks or M×K Modes), singular values, counters and the options
	// the engine runs with. Serial and Parallel read it in
	// place, WithShards reduces its shards up the merge tree and Distributed
	// parses the fleet's SAVE checkpoint. The State may share the
	// engine's storage: read it before the next push, copy what must
	// outlive that.
	state() (core.State, error)
	stats() Stats
	close() error
}

// deadlineAware is the optional extension Fit uses to map a context
// deadline onto an engine whose operations block on external processes.
type deadlineAware interface {
	setDeadline(t time.Time)
}

// SVD is a handle on one streaming decomposition. Construct it with New,
// feed it through Fit or Push, read it through Result, persist it with
// Save. Every backend — Serial, Parallel and Distributed — is driven
// through the same surface; a Distributed SVD lazily spawns its worker
// fleet on the first batch and keeps it alive until Close.
//
// Methods on SVD are safe for use from a single goroutine; concurrent
// calls are serialized internally.
type SVD struct {
	cfg config

	mu     sync.Mutex
	eng    engine
	closed bool
	// failed is the first engine error that wraps ErrEngineFailed: the
	// engine is retired and every later operation refuses with it.
	failed error

	// Ingest counters surfaced by Stats without touching the engine.
	rows      int
	snapshots int
	updates   int64

	// Traffic counters maintained here for every backend (the engines
	// only know their own collectives): logical bytes pushed, bytes that
	// actually crossed into the engine, and how many pushes traveled as
	// compressed sketches.
	pushedBytes    int64
	wireBytes      int64
	sketchedPushes int64

	// rebuilder holds the batch PushSketch rebuilds from each pair.
	rebuilder rebuilder

	// Merge provenance: the shard marks absorbed so far (Merge refuses
	// the same shard twice) and the accumulated Iwen–Ong truncation
	// bound of every merge applied to this model.
	absorbed   []core.ShardID
	mergeBound float64
}

// New builds a decomposition from functional options. The zero
// configuration (no options) is a serial engine with K = 10 modes and
// forget factor 1.0. Invalid or contradictory options are reported as an
// error; New never panics.
func New(opts ...Option) (*SVD, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		if opt == nil {
			return nil, errors.New("parsvd: nil Option")
		}
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &SVD{cfg: cfg}
	if cfg.shards > 1 {
		// A sharded fit deals batches across independent engines of the
		// configured backend and merges their results.
		s.eng = newShardedEngine(cfg)
		return s, nil
	}
	switch cfg.backend {
	case Serial:
		s.eng = newSerialEngine(cfg.opts)
	case Parallel:
		s.eng = newParallelEngine(cfg.opts, cfg.ranks)
	case Distributed:
		// The worker fleet spawns lazily on the first batch.
		s.eng = newDistEngine(cfg)
	}
	return s, nil
}

// Backend reports the current execution mode: the one this SVD was built
// with, or Serial after a Merge (a merged model continues serially).
func (s *SVD) Backend() Backend {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.backend
}

// Ranks reports the world size (1 for the serial backend).
func (s *SVD) Ranks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.ranks
}

// Fit drains src through the decomposition: the first batch seeds it
// (Algorithm 1's initialization), every further batch is a streaming
// update. ctx is checked between batches; cancellation returns ctx.Err()
// with the state as of the last completed batch intact. If src implements
// io.Closer it is closed before Fit returns. When a checkpoint writer was
// configured (WithCheckpoint), the final state is saved to it after the
// source drains.
//
// Every backend accepts every Source: the Distributed backend scatters
// each batch's rows across its worker fleet over the wire, the same row
// blocks the Parallel backend's TSQR factors one after another.
func (s *SVD) Fit(ctx context.Context, src Source) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if src == nil {
		return nil, errors.New("parsvd: Fit with nil Source")
	}
	if c, ok := src.(io.Closer); ok {
		defer c.Close()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable("Fit"); err != nil {
		return nil, err
	}
	// A context deadline must bound the Distributed backend's wire
	// operations, not just the between-batch checks below: map it onto
	// the engine's per-operation cap for the duration of this Fit.
	if dl, ok := ctx.Deadline(); ok {
		if da, ok := s.eng.(deadlineAware); ok {
			da.setDeadline(dl)
			defer da.setDeadline(time.Time{})
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b, err := src.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("parsvd: source: %w", err)
		}
		if err := s.pushLocked(b); err != nil {
			// A push that failed because the context expired mid-wire
			// reports the context error, like any other ctx-aware API.
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			return nil, err
		}
	}
	res, err := s.fitResultLocked()
	if err != nil && ctx.Err() != nil {
		// A gather refused because the deadline expired after the last
		// batch reports the context error, not a backend detail.
		return nil, ctx.Err()
	}
	return res, err
}

// fitResultLocked is the Result a Fit returns. With a checkpoint writer
// configured it reads the engine's state once, writes it and builds the
// Result from the same state, so the checkpoint costs no second gather or
// merge-tree run (on the Distributed backend, no SPECTRUM or MODES-SHA
// round trip after the SAVE). Called with s.mu held.
func (s *SVD) fitResultLocked() (*Result, error) {
	if s.cfg.checkpoint == nil {
		return s.resultLocked()
	}
	st, err := s.saveLocked(s.cfg.checkpoint)
	if err != nil {
		return nil, fmt.Errorf("parsvd: writing checkpoint: %w", err)
	}
	if d, ok := s.eng.(*distEngine); ok {
		return d.resultOf(st), nil
	}
	return newResult(st), nil
}

// Push ingests one snapshot batch (M×B): the first call seeds the
// decomposition, later calls stream. It is the incremental alternative to
// Fit for callers that produce batches themselves. On the Distributed
// backend the first Push spawns the persistent worker fleet and every
// batch is row-scattered to it over the wire.
func (s *SVD) Push(batch *Matrix) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable("Push"); err != nil {
		return err
	}
	return s.pushLocked(batch)
}

// usable refuses op on a closed SVD or one whose engine failed. Called
// with s.mu held.
func (s *SVD) usable(op string) error {
	if s.closed {
		return fmt.Errorf("parsvd: %s on closed SVD", op)
	}
	return s.failed
}

// retire records err as the SVD's failure when it wraps ErrEngineFailed:
// the engine is dead, and no operation reaches it again. Called with s.mu
// held.
func (s *SVD) retire(err error) error {
	if errors.Is(err, ErrEngineFailed) {
		s.failed = err
	}
	return err
}

// pushLocked checks a batch, forwards it to the engine and maintains the
// ingest counters behind Stats. With WithSketchedPush the batch is
// compressed into its factor pair first and only the pair crosses into
// the engine; batches the sketch cannot compress fall through to the raw
// path. Called with s.mu held.
func (s *SVD) pushLocked(b *Matrix) error {
	if err := checkBatch(b, s.rows); err != nil {
		return err
	}
	if err := s.checkSplit(b.Rows()); err != nil {
		return err
	}
	if s.cfg.sketchOn {
		q, sk, err := sketchBatch(b, s.cfg.sketch, s.cfg.opts.RLA)
		if err != nil {
			return err
		}
		if q != nil {
			return s.pushSketchLocked(q, sk)
		}
	}
	if err := s.eng.push(b); err != nil {
		return s.retire(err)
	}
	s.count(b.Rows(), b.Cols(), 8*int64(b.Rows()*b.Cols()))
	return nil
}

// count records one applied push of an M×B batch that sent wire bytes
// into the engine. Called with s.mu held.
func (s *SVD) count(m, b int, wire int64) {
	s.pushedBytes += 8 * int64(m*b)
	s.wireBytes += wire
	if s.rows == 0 {
		s.rows = m
	}
	s.snapshots += b
	s.updates++
}

// checkBatch validates a snapshot batch against the rows seen so far
// (rows == 0 means no batch yet). Non-finite values are rejected on
// every backend — a NaN or Inf snapshot would silently corrupt the
// running factorization — so code written against one backend behaves
// identically on the others.
func checkBatch(b *mat.Dense, rows int) error {
	if b == nil || b.IsEmpty() {
		return errors.New("parsvd: empty snapshot batch")
	}
	if rows != 0 && b.Rows() != rows {
		return fmt.Errorf("parsvd: batch has %d rows, want %d", b.Rows(), rows)
	}
	if i := mat.FirstNonFinite(b.RawData()); i >= 0 {
		return fmt.Errorf("parsvd: snapshot batch contains a non-finite value (%g)", b.RawData()[i])
	}
	return nil
}

// checkSplit refuses a first batch of rows rows that the row split cannot
// give every rank at least one row of. Later batches have the first's
// rows. Called with s.mu held.
func (s *SVD) checkSplit(rows int) error {
	if s.rows == 0 && rows < s.cfg.ranks {
		return fmt.Errorf("parsvd: %d snapshot rows cannot be split across %d ranks", rows, s.cfg.ranks)
	}
	return nil
}

// Result snapshots the current decomposition: modes, spectrum, counters.
// At least one batch must have been ingested. The returned matrices are
// copies owned by the caller.
func (s *SVD) Result() (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable("Result"); err != nil {
		return nil, err
	}
	return s.resultLocked()
}

// resultLocked snapshots the engine's decomposition. A Distributed
// fleet's Result fingerprints its modes instead of carrying them, so a
// read never ships the M×K matrix to this process. Called with s.mu held.
func (s *SVD) resultLocked() (*Result, error) {
	if s.rows == 0 {
		return nil, errNoData
	}
	if d, ok := s.eng.(*distEngine); ok {
		res, err := d.result()
		return res, s.retire(err)
	}
	st, err := s.eng.state()
	if err != nil {
		return nil, s.retire(err)
	}
	return newResult(st), nil
}

// errNoData refuses every read of an SVD that has seen no batch.
var errNoData = errors.New("parsvd: no data ingested yet")

// newResult copies st into a Result the caller owns.
func newResult(st core.State) *Result {
	modes := modeMatrix(st)
	if modes == st.Modes {
		modes = modes.Clone()
	}
	return &Result{
		Modes:      modes,
		Singular:   append([]float64(nil), st.Singular...),
		Iterations: st.Iterations,
		Snapshots:  st.Snapshots,
	}
}

// Stats reports the SVD's configuration, ingest counters and inter-rank
// traffic. Unlike Result it never gathers modes, so it is cheap enough to
// poll per request when the SVD backs a service.
func (s *SVD) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Backend:   s.cfg.backend,
		K:         s.cfg.opts.K,
		Ranks:     s.cfg.ranks,
		Rows:      s.rows,
		Snapshots: s.snapshots,
		Updates:   s.updates,
		Shard:     shardInfo(s.cfg.shard),
		Absorbed:  len(s.absorbed),
	}
	st.PushedBytes = s.pushedBytes
	st.WireBytes = s.wireBytes
	st.SketchedPushes = s.sketchedPushes
	if s.eng != nil {
		es := s.eng.stats()
		st.Messages, st.Bytes = es.Messages, es.Bytes
	}
	return st
}

// Save serializes the full streaming state — options, global modes,
// singular values, counters — in the goparsvd checkpoint format readable
// by Load. For the Distributed backend the per-rank slices are gathered
// first (rank 0 of the worker fleet assembles the checkpoint and ships it
// back over the wire), so the checkpoint always holds the global state
// and can be resumed serially.
func (s *SVD) Save(w io.Writer) error {
	if w == nil {
		return errors.New("parsvd: Save with nil writer")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable("Save"); err != nil {
		return err
	}
	_, err := s.saveLocked(w)
	return err
}

// saveLocked writes the engine's state to w, stamped with the WithShard
// provenance mark, and returns it. Called with s.mu held.
func (s *SVD) saveLocked(w io.Writer) (core.State, error) {
	if s.rows == 0 {
		return core.State{}, errNoData
	}
	st, err := s.eng.state()
	if err != nil {
		return st, s.retire(err)
	}
	st.Shard = s.cfg.shard
	return st, core.WriteState(w, st)
}

// Close releases backend resources (the Distributed backend's worker
// fleet: every parsvd-worker process is shut down and reaped). The SVD is
// unusable afterwards. Close is idempotent and optional for the Serial
// and Parallel backends: there it hands the engine's buffer to the next
// SVD brought up in the process, which then skips allocating its own
// (Results already taken are copies and stay valid); an SVD never closed
// is left to the garbage collector.
func (s *SVD) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.eng != nil {
		return s.eng.close()
	}
	return nil
}

// Package stream implements the serial streaming (online) SVD of Levy &
// Lindenbaum (paper §3.1, Algorithm 1, Listing 1): the truncated left
// singular vectors of a growing snapshot matrix are updated batch by batch,
// with a forget factor ff weighting the contribution of past batches.
//
// The streaming state after ingesting batches A_0 … A_i approximates the
// truncated SVD of [ff^i·A_0 | … | ff·A_{i−1} | A_i]; with ff = 1 and K at
// least the matrix rank it reproduces the one-shot SVD exactly.
//
// The same engine runs one rank of the distributed update (paper Listing 2
// `incorporate_data`): there the rows of the snapshot matrix are split
// across ranks, and only the factor step differs — the distributed QR of
// Listing 4 in place of the local one.
//
// The update is also the pairwise merge of Iwen & Ong (arXiv 1601.07010):
// Absorb stacks another factorization's scaled modes under the engine's own,
// weighting both by 1 rather than ff, and runs the same QR, small SVD and
// truncation. Its small SVD is always the dense one, so the energy the
// truncation discards is measured exactly, and an absorbed factorization
// holds at most K modes, as the engine's own state does.
package stream

import (
	"fmt"

	"goparsvd/internal/linalg"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/rla"
	"goparsvd/internal/tsqr"
)

// Options configures a streaming SVD.
type Options struct {
	// K is the number of retained modes (truncation rank).
	K int
	// FF is the forget factor in (0, 1]; the paper uses 0.95 in its
	// experiments and 1.0 to reproduce the one-shot SVD.
	FF float64
	// LowRank replaces the small dense SVD in each update with the
	// randomized variant (paper §3.3).
	LowRank bool
	// RLA configures the randomized SVD when LowRank is set.
	RLA rla.Options
}

// Validate reports whether the options describe a usable configuration.
// It is the error-returning twin of validated, for callers (the public
// parsvd facade) that must not panic.
func (o Options) Validate() error {
	if o.K < 1 {
		return fmt.Errorf("stream: K = %d < 1", o.K)
	}
	if !(o.FF > 0 && o.FF <= 1) { // the negated form also rejects NaN
		return fmt.Errorf("stream: forget factor %g outside (0, 1]", o.FF)
	}
	return o.RLA.Validate()
}

func (o Options) validated() Options {
	if err := o.Validate(); err != nil {
		panic(err)
	}
	if o.RLA.IsZero() {
		o.RLA = rla.DefaultOptions()
	}
	return o
}

// SVD is the streaming decomposition state. Create one with New, seed it
// with Initialize, then feed batches with IncorporateData. Calling them out
// of order panics. An error from Initialize, IncorporateData,
// IncorporateFilled or Absorb (the randomized small SVD refusing its
// input; on a distributed engine a failed collective or a peer's bad
// factor) leaves the engine dead: it must not be used again.
//
// The modes are held mode-major: the first k rows of buf, row j being mode
// j (column j of U), k = min(K, columns seen). Algorithm 1 only ever reads
// the modes back as the rows ff·d_j·u_jᵀ stacked on top of the next batch's
// Aᵀ, so they stay in the buffer the update factors in place: the next
// update scales them where they lie, stacks the batch under them, and the
// QR's apply writes the new modes back over them.
type SVD struct {
	opts        Options
	step        step
	buf         *mat.Dense // the update's factored buffer, one row of M values per stacked column
	top         mat.Dense  // view of buf's first k rows: the modes, mode-major
	batch       mat.Dense  // view of the rows under top that BatchRows handed out
	filled      int        // the width BatchRows handed out, for IncorporateFilled
	singular    []float64
	rows        int
	iterations  int
	snapshots   int
	initialized bool

	// modes is the M×k copy Modes builds on demand; nil until asked for
	// after the latest update.
	modes *mat.Dense

	// discarded is the energy Σ_{j≥k} d_j² of the singular values the
	// latest small SVD dropped (on a distributed engine, rank 0's only).
	discarded float64

	// ws recycles every temporary of the update across iterations; once
	// batch shapes are steady the per-batch update allocates nothing.
	ws mat.Workspace
}

// step is the one part of the update the serial and distributed engines do
// differently. It factors the stack held column by column in at and returns
// the factor f of (this rank's block of) its Q, the truncated basis change x
// whose image Q·[x; 0] is the new modes, and their singular values d. x and
// d come from the workspace; the caller puts them back. lowRank selects the
// small SVD.
type step func(s *SVD, at *mat.Dense, lowRank bool) (f linalg.QRFactor, x *mat.Dense, d []float64, err error)

// localStep factors the whole stack in this process (Listing 1).
func localStep(s *SVD, at *mat.Dense, lowRank bool) (linalg.QRFactor, *mat.Dense, []float64, error) {
	f, r := linalg.FactorQR(&s.ws, at)
	x, d, err := s.smallSVD(r, lowRank)
	s.ws.Put(r)
	return f, x, d, err
}

// gatherStep factors a stack whose rows are split across c's ranks: the
// distributed QR of Listing 4, then the small SVD of the global R at rank
// 0, broadcast to every rank as one (n+1)×k message: Ũ_k with d as its
// last row. This rank's block of Q stays implicit as f·[qc; 0], so its
// basis change is qc·Ũ_k. The broadcast factors land in workspace storage
// on every rank, as the root's own already do.
func gatherStep(c *mpi.Comm) step {
	return func(s *SVD, at *mat.Dense, lowRank bool) (linalg.QRFactor, *mat.Dense, []float64, error) {
		f, qc, r, err := tsqr.GatherQRFactor(&s.ws, c, at)
		if err != nil {
			return f, nil, nil, err
		}
		n := qc.Cols()
		var ud *mat.Dense
		var d []float64
		if r != nil { // rank 0
			var u *mat.Dense
			u, d, err = s.smallSVD(r, lowRank)
			s.ws.Put(r)
			if err != nil {
				return f, nil, nil, err
			}
			ud = s.ws.GetUninit(n+1, len(d))
			copy(ud.RawData(), u.RawData())
			copy(ud.RawData()[n*len(d):], d)
			s.ws.Put(u)
		} else {
			// Sized for the usual min(K, n) modes; the broadcast reshapes
			// it to whatever the root sends.
			ud = s.ws.GetUninit(n+1, min(s.opts.K, n))
		}
		if err := c.BcastMatrixInto(0, ud); err != nil {
			return f, nil, nil, err
		}
		k := ud.Cols()
		if r == nil {
			if ud.Rows() != n+1 || k > n {
				return f, nil, nil, fmt.Errorf("stream: rank 0 broadcast a %dx%d factor, want %d rows and at most %d columns",
					ud.Rows(), k, n+1, n)
			}
			d = s.ws.GetFloats(k)
			copy(d, ud.RawData()[n*k:])
		}
		u := s.ws.ViewRows(ud, 0, n)
		x := s.ws.GetUninit(qc.Rows(), k)
		mat.MulInto(x, qc, u)
		s.ws.PutView(u)
		s.ws.Put(qc)
		s.ws.Put(ud)
		return f, x, d, nil
	}
}

// New returns an empty streaming SVD with the given options.
func New(opts Options) *SVD {
	return &SVD{opts: opts.validated(), step: localStep}
}

// Restore rebuilds a streaming SVD from previously captured state (the
// checkpoint/restart path): a new engine seeded with the current modes
// (M×k), singular values and counters. See Seed.
func Restore(opts Options, modes *mat.Dense, singular []float64, iterations, snapshots int) (*SVD, error) {
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("stream: Restore: %w", err)
	}
	s := New(opts)
	if err := s.Seed(modes, singular, iterations, snapshots); err != nil {
		return nil, err
	}
	return s, nil
}

// Seed replaces the engine's whole state with previously captured modes
// (M×k), their singular values and the counters. The modes are transposed
// into the engine's mode-major buffer, which is reused when it already
// holds k rows of length M and otherwise sized to exactly k rows, as a
// restored engine that is only read needs; the caller keeps the matrix it
// passed.
//
// Every structural invariant the streaming update relies on is checked
// here, so a corrupted checkpoint fails loudly at load time rather than
// deep inside the next IncorporateData call. A failed Seed leaves the
// engine as it was.
func (s *SVD) Seed(modes *mat.Dense, singular []float64, iterations, snapshots int) error {
	if modes == nil {
		return fmt.Errorf("stream: state inconsistent: nil modes")
	}
	m, k := modes.Dims()
	if err := s.opts.CheckState(m, k, singular, iterations, snapshots); err != nil {
		return err
	}
	if s.buf == nil || s.buf.Cols() != m || s.buf.Rows() < k {
		s.buf = s.ws.GetUninit(k, m)
	}
	s.buf.ViewRows(0, k, &s.top)
	modes.TInto(&s.top)
	s.singular = append(s.singular[:0], singular...)
	s.rows = m
	s.iterations = iterations
	s.snapshots = snapshots
	s.initialized = true
	s.ws.Put(s.modes)
	s.modes = nil
	return nil
}

// CheckState validates a captured state of k modes over m rows against the
// options, as Seed does before it adopts one.
func (o Options) CheckState(m, k int, singular []float64, iterations, snapshots int) error {
	if m < 1 || k < 1 {
		return fmt.Errorf("stream: state inconsistent: empty %dx%d modes", m, k)
	}
	if k != len(singular) {
		return fmt.Errorf("stream: state inconsistent: %d mode columns, %d singular values",
			k, len(singular))
	}
	// The engine never retains more than K modes, so a state claiming
	// len(singular) > K cannot have been produced by these options.
	if o.K < len(singular) {
		return fmt.Errorf("stream: state inconsistent: %d singular values exceed K = %d",
			len(singular), o.K)
	}
	if iterations < 0 || snapshots < k {
		return fmt.Errorf("stream: counters invalid: iterations=%d snapshots=%d (modes %dx%d)",
			iterations, snapshots, m, k)
	}
	return nil
}

// Initialized reports whether Initialize has been called. A nil engine is
// not initialized, so a caller that embeds one before seeding it gets the
// usage panic rather than a nil dereference.
func (s *SVD) Initialized() bool { return s != nil && s.initialized }

// Iterations returns the number of IncorporateData calls so far.
func (s *SVD) Iterations() int { return s.iterations }

// SnapshotsSeen returns the total number of ingested snapshot columns.
func (s *SVD) SnapshotsSeen() int { return s.snapshots }

// Modes returns the current truncated left singular vectors (M×k). The
// caller must not mutate the result, and the matrix is only valid until the
// next IncorporateData call — its storage is recycled into the update's
// workspace. Clone it to retain a snapshot across updates.
//
// The engine holds its modes mode-major (ModeRows), so the first call after
// an update transposes them into a workspace buffer; later calls before the
// next update return the same matrix.
func (s *SVD) Modes() *mat.Dense {
	s.mustBeInitialized()
	if s.modes == nil {
		s.modes = s.ws.GetUninit(s.rows, len(s.singular))
		s.top.TInto(s.modes)
	}
	return s.modes
}

// ModeRows returns the current modes mode-major, as the k×M matrix Uᵀ whose
// row j is mode j: the engine's own storage, no copy. The caller must not
// mutate the result, and it is only valid until the next IncorporateData
// call.
func (s *SVD) ModeRows() *mat.Dense {
	s.mustBeInitialized()
	return &s.top
}

// SingularValues returns the current truncated singular values. The caller
// must not mutate the result.
func (s *SVD) SingularValues() []float64 {
	s.mustBeInitialized()
	return s.singular
}

func (s *SVD) mustBeInitialized() {
	if !s.Initialized() {
		panic("stream: SVD not initialized; call Initialize with the first batch")
	}
}

// Initialize seeds the decomposition with the first batch A_0 (M×B): a QR
// factorization followed by an SVD of the small R factor (Algorithm 1,
// steps I1–I2).
func (s *SVD) Initialize(a *mat.Dense) error {
	if s.initialized {
		panic("stream: Initialize called twice; use IncorporateData for new batches")
	}
	m, b := a.Dims()
	if m == 0 || b == 0 {
		panic("stream: empty initial batch")
	}
	s.buf = s.ws.GetUninit(b, m)
	a.TInto(s.buf)
	return s.seed(b)
}

// InitializeDistributed returns one rank of an engine whose snapshot rows
// are split across c's ranks, seeded exactly as Initialize seeds the
// serial engine, by the update's own rotation with Listing 4's distributed
// QR as its factor step: buf's first b rows hold this rank's block of the
// first batch transposed (row j is snapshot j's M_i values), and the
// rotation writes the modes over them. The engine adopts buf, no copy, so
// the caller must not touch it afterwards; rows beyond the first b are
// where later batches are stacked, so a buffer of K+B rows is never
// regrown by B-wide updates. Every rank must make the same sequence of
// calls. An error (a failed collective, a peer's bad factor) leaves the
// engine dead.
func InitializeDistributed(c *mpi.Comm, opts Options, buf *mat.Dense, b int) (*SVD, error) {
	if c == nil {
		panic("stream: InitializeDistributed needs a communicator")
	}
	if buf.Cols() == 0 || b < 1 || b > buf.Rows() {
		panic(fmt.Sprintf("stream: seeding %d snapshots from a %dx%d buffer", b, buf.Rows(), buf.Cols()))
	}
	s := &SVD{opts: opts.validated(), step: gatherStep(c), buf: buf}
	return s, s.seed(b)
}

// seed rotates the first batch, written transposed into buf's first b
// rows, into the modes (Algorithm 1, steps I1–I2).
func (s *SVD) seed(b int) error {
	at := s.buf
	if b < at.Rows() {
		at = s.ws.ViewRows(s.buf, 0, b)
	}
	err := s.rotate(at, s.opts.LowRank)
	if at != s.buf {
		s.ws.PutView(at)
	}
	if err != nil {
		return err
	}
	s.rows = s.buf.Cols()
	s.snapshots = b
	s.initialized = true
	return nil
}

// IncorporateData ingests a new batch A_i (M×B), updating the truncated
// modes and singular values (Algorithm 1, steps 1–5):
//
//	[ff·U_{i−1}·D_{i−1} | A_i] = U′·D′   (QR)
//	D′ = Ũ·D̃·Ṽᵀ                        (small SVD)
//	U_i = U′·Ũ[:, :K],  D_i = D̃[:K]
func (s *SVD) IncorporateData(a *mat.Dense) error {
	s.mustBeInitialized()
	m, b := a.Dims()
	if m != s.rows {
		panic(fmt.Sprintf("stream: batch has %d rows, want %d", m, s.rows))
	}
	a.TInto(s.BatchRows(b))
	return s.IncorporateFilled(b)
}

// BatchRows returns the b×M rows a batch of b snapshots is written into,
// transposed (row j holds snapshot j's M values), for IncorporateFilled(b)
// to ingest: the buffer rows under the modes, where the update stacks the
// batch anyway. A caller that decodes a batch straight into them holds no
// copy of it. The buffer grows to K+b rows once if they do not fit. The
// rows are valid until the next call on the engine.
func (s *SVD) BatchRows(b int) *mat.Dense {
	s.mustBeInitialized()
	k0, m := len(s.singular), s.rows
	if s.buf.Rows() < k0+b {
		// Not pooled: the old buffer goes to the GC, so the engine holds
		// one buffer of M-long rows, not two.
		grown := s.ws.GetUninit(s.opts.K+b, m)
		copy(grown.RawData(), s.top.RawData())
		s.buf = grown
		s.buf.ViewRows(0, k0, &s.top)
	}
	s.buf.ViewRows(k0, k0+b, &s.batch)
	s.filled = b
	return &s.batch
}

// IncorporateFilled is IncorporateData for a batch of b snapshots already
// written into BatchRows(b), the call that must come right before it.
func (s *SVD) IncorporateFilled(b int) error {
	s.mustBeInitialized()
	if b != s.filled {
		panic(fmt.Sprintf("stream: IncorporateFilled(%d) after BatchRows(%d)", b, s.filled))
	}
	s.filled = 0
	if b == 0 {
		return nil
	}
	if err := s.update(s.opts.FF, b, s.opts.LowRank); err != nil {
		return err
	}
	s.iterations++
	s.snapshots += b
	return nil
}

// Absorb merges into the engine the truncated factorization (modes M×k,
// singular values) of snapshots disjoint from those it has seen, and
// returns the energy Σ_{j≥K} d_j² the truncation back to K modes
// discarded. This is the pairwise merge of Iwen & Ong (arXiv 1601.07010):
// the update with both sides weighted by 1 instead of ff,
//
//	[U·D | U_b·D_b] = U′·D′,  D′ = Ũ·D̃·Ṽᵀ,  U = U′·Ũ[:, :K],  D = D̃[:K]
//
// always on the dense small SVD, so the discarded energy is exact. The
// absorbed factorization must hold 1 to K modes. The counters are the
// caller's: Absorb leaves them as they are. The caller keeps modes and
// singular, which are read, never adopted.
func (s *SVD) Absorb(modes *mat.Dense, singular []float64) (float64, error) {
	s.mustBeInitialized()
	m, k := modes.Dims()
	if m != s.rows {
		panic(fmt.Sprintf("stream: absorbed modes have %d rows, want %d", m, s.rows))
	}
	if k < 1 || k != len(singular) || k > s.opts.K {
		panic(fmt.Sprintf("stream: absorbing %d modes with %d singular values, K = %d",
			k, len(singular), s.opts.K))
	}
	mat.MulDiagScaledTInto(s.BatchRows(k), 1, modes, singular)
	s.filled = 0
	if err := s.update(1, k, false); err != nil {
		return 0, err
	}
	return s.discarded, nil
}

// update is the one body of IncorporateData and Absorb. The stack
// [w·U·diag(D) | X] is held column by column, the layout the QR factors in
// place: its first k0 rows are the modes already in the buffer, scaled
// where they lie (Listing 1: m_ap = ff·U·diag(D)), and the b columns of X
// sit transposed in the rows under them, written through BatchRows. Every
// temporary comes from the iteration workspace, so the steady-state update
// performs no heap allocations.
func (s *SVD) update(w float64, b int, lowRank bool) error {
	k0, m := len(s.singular), s.rows
	at := s.ws.ViewRows(s.buf, 0, k0+b)
	d := at.RawData()
	for j, dj := range s.singular {
		row := d[j*m : (j+1)*m]
		for i, v := range row {
			row[i] = w * v * dj
		}
	}
	err := s.rotate(at, lowRank)
	s.ws.PutView(at)
	return err
}

// rotate is the shared body of both steps: the engine's factor step turns
// the stacked matrix held column by column in at (the leading rows of buf)
// into Q's factor and the truncated basis change, and Q applied to it —
// never formed — writes the new modes mode-major over at's first rows, with
// the retained singular values alongside.
func (s *SVD) rotate(at *mat.Dense, lowRank bool) error {
	f, x, d, err := s.step(s, at, lowRank)
	if err != nil {
		return err
	}
	f.MulQInPlace(&s.ws, x)
	f.Release(&s.ws)
	s.ws.Put(x)
	s.singular = append(s.singular[:0], d...)
	s.ws.PutFloats(d)
	s.buf.ViewRows(0, len(d), &s.top)
	s.ws.Put(s.modes) // the previous Modes copy is stale
	s.modes = nil
	return nil
}

// smallSVD factorizes the small (batch-sized) matrix produced by the QR
// step, with the randomized algorithm when lowRank is set, and truncates it
// to the K leading singular triplets: it returns Ũ[:, :k] and the k largest
// singular values in descending order, which subsumes Listing 1's argsort.
// It is the one place the library discards singular values, and records
// their energy in s.discarded (zero from the randomized SVD, which never
// computes them). The returned factors are workspace-owned; the caller
// puts them back.
func (s *SVD) smallSVD(r *mat.Dense, lowRank bool) (*mat.Dense, []float64, error) {
	var u *mat.Dense
	var d []float64
	if lowRank {
		var err error
		u, d, err = rla.LowRankSVDWith(&s.ws, r, min(s.opts.K, r.Rows(), r.Cols()), s.opts.RLA)
		if err != nil {
			return nil, nil, fmt.Errorf("stream: low-rank small SVD: %w", err)
		}
	} else {
		u, d = linalg.SVDLeftWith(&s.ws, r)
	}
	k := min(s.opts.K, len(d))
	s.discarded = 0
	for _, v := range d[k:] {
		s.discarded += v * v
	}
	uk := s.ws.GetUninit(u.Rows(), k)
	u.SliceColsInto(uk, 0, k)
	s.ws.Put(u)
	return uk, d[:k], nil
}

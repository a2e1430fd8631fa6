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
// Listing 4 in place of the local one. NewBlocked runs that distributed QR
// over row blocks in one process, with the distributed update's arithmetic.
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
	"math"
	"sync"
	"sync/atomic"

	"goparsvd/internal/grid"
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

// Validate reports whether the options describe a usable configuration:
// the check every constructor and Restore make, as an error for callers (a
// worker's engine spec, a checkpoint from outside) that must not panic.
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

// SVD is the streaming decomposition state. Create one with New,
// NewBlocked or NewDistributed, seed it with Initialize (or FirstBatch and
// InitializeFilled), then feed batches with IncorporateData (or BatchRows
// and IncorporateFilled). Calling them out of order panics. An error from
// any of them or from Absorb (the randomized small SVD refusing its input;
// on a distributed engine a failed collective or a peer's bad factor)
// leaves the engine dead: it must not be used again. Release hands the
// engine's buffer on to the next engine of the process; every call that
// reads or changes the decomposition panics after it.
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
	batch       mat.Dense  // view of the rows FirstBatch or BatchRows handed out
	filled      int        // the width they handed out, for InitializeFilled or IncorporateFilled
	singular    []float64
	rows        int
	iterations  int
	snapshots   int
	initialized bool
	released    bool

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

// step is the one part of the update the serial, blocked and distributed
// engines do differently. It factors the stack held column by column in
// at, runs the small SVD of its R (lowRank selects which), and applies Q,
// never formed, to the truncated basis change x: Q·[x; 0] is the new
// modes, written mode-major over at's first rows. It returns their
// singular values d, from the workspace; the caller puts them back.
type step func(s *SVD, at *mat.Dense, lowRank bool) (d []float64, err error)

// localStep factors the whole stack in this process (Listing 1).
func localStep(s *SVD, at *mat.Dense, lowRank bool) ([]float64, error) {
	f, r := linalg.FactorQR(&s.ws, at)
	x, d, err := s.smallSVD(r, lowRank)
	s.ws.Put(r)
	if err != nil {
		return nil, err
	}
	s.applyQ(f, x)
	return d, nil
}

// gatherStep factors a stack whose rows are split across c's ranks: the
// distributed QR of Listing 4, then the small SVD of the global R at rank
// 0, broadcast to every rank as one (n+1)×k message: Ũ_k with d as its
// last row. This rank's block of Q stays implicit as f·[qc; 0], so its
// basis change is qc·Ũ_k. The broadcast factors land in workspace storage
// on every rank, as the root's own already do.
func gatherStep(c *mpi.Comm) step {
	return func(s *SVD, at *mat.Dense, lowRank bool) ([]float64, error) {
		f, qc, r, err := tsqr.GatherQRFactor(&s.ws, c, at)
		if err != nil {
			return nil, err
		}
		n := qc.Cols()
		var ud *mat.Dense
		var d []float64
		if r != nil { // rank 0
			var u *mat.Dense
			u, d, err = s.smallSVD(r, lowRank)
			s.ws.Put(r)
			if err != nil {
				return nil, err
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
			return nil, err
		}
		k := ud.Cols()
		if r == nil {
			if ud.Rows() != n+1 || k > n {
				return nil, fmt.Errorf("stream: rank 0 broadcast a %dx%d factor, want %d rows and at most %d columns",
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
		s.applyQ(f, x)
		return d, nil
	}
}

// blockStep is gatherStep's arithmetic in one process: the stack's M
// columns are split into the p row blocks of grid.Partition, computed once
// from the first stack, as the launcher splits a distributed engine's rows.
// Each block is copied out of the buffer into a workspace matrix, so it is
// factored in the layout a rank holds its own block in; the blocks' R
// factors are stacked in block order and combined as the TSQR root
// combines them (tsqr.CombineR); the small SVD runs once; and each block's
// Q, applied in place to its basis change qc_i·Ũ_k, writes the block's
// slice of the modes, which is copied back. Every block runs in turn on
// the engine's one workspace, so the modes match a p-rank gatherStep
// engine's bit for bit.
func blockStep(p int) step {
	var parts []grid.Range
	var blocks []*mat.Dense
	var factors []linalg.QRFactor
	return func(s *SVD, at *mat.Dense, lowRank bool) ([]float64, error) {
		n, m := at.Dims()
		if parts == nil {
			parts = grid.Partition(m, p)
			blocks = make([]*mat.Dense, p)
			factors = make([]linalg.QRFactor, p)
		}
		stack := s.ws.GetUninit(p*n, n)
		off := 0
		for i, pr := range parts {
			b := s.ws.GetUninit(n, pr.Len())
			at.SliceColsInto(b, pr.Start, pr.End)
			f, r := linalg.FactorQR(&s.ws, b)
			copy(stack.RawData()[off*n:], r.RawData())
			off += r.Rows()
			s.ws.Put(r)
			blocks[i], factors[i] = b, f
		}
		rs := s.ws.ViewRows(stack, 0, off)
		q, r := tsqr.CombineR(&s.ws, rs)
		s.ws.PutView(rs)
		s.ws.Put(stack)
		u, d, err := s.smallSVD(r, lowRank)
		s.ws.Put(r)
		if err != nil {
			return nil, err
		}
		k := len(d)
		off = 0
		for i, pr := range parts {
			mi, t := pr.Len(), min(pr.Len(), n)
			qc := s.ws.ViewRows(q, off, off+t)
			x := s.ws.GetUninit(t, k)
			mat.MulInto(x, qc, u)
			s.ws.PutView(qc)
			s.applyQ(factors[i], x)
			ad, bd := at.RawData(), blocks[i].RawData()
			for j := 0; j < k; j++ {
				copy(ad[j*m+pr.Start:j*m+pr.End], bd[j*mi:(j+1)*mi])
			}
			s.ws.Put(blocks[i])
			off += t
		}
		s.ws.Put(q)
		s.ws.Put(u)
		return d, nil
	}
}

// applyQ writes Q·[x; 0] mode-major over the first x.Cols() rows of f's
// factored buffer, then releases f and puts x back.
func (s *SVD) applyQ(f linalg.QRFactor, x *mat.Dense) {
	f.MulQInPlace(&s.ws, x)
	f.Release(&s.ws)
	s.ws.Put(x)
}

// New returns an empty streaming SVD with the given options.
func New(opts Options) *SVD {
	return &SVD{opts: opts.validated(), step: localStep}
}

// NewBlocked returns an empty streaming SVD whose factor step is the TSQR
// of Listing 4 over p row blocks, run in this process (blockStep): the
// modes of a p-rank distributed engine fed the same batches, bit for bit.
// The first batch fixes the blocks, and must have at least p ≥ 1 rows.
func NewBlocked(opts Options, p int) *SVD {
	return &SVD{opts: opts.validated(), step: blockStep(p)}
}

// NewDistributed returns one rank of an empty streaming SVD whose snapshot
// rows are split across c's ranks: its factor step is Listing 4's
// distributed QR (gatherStep), and it is seeded and fed with this rank's
// block of each batch. Every rank must make the same sequence of calls.
func NewDistributed(c *mpi.Comm, opts Options) *SVD {
	if c == nil {
		panic("stream: NewDistributed needs a communicator")
	}
	return &SVD{opts: opts.validated(), step: gatherStep(c)}
}

// Options returns the options the engine runs with, defaults filled in (a
// zero RLA is rla.DefaultOptions()): the ones its checkpoints record.
func (s *SVD) Options() Options { return s.opts }

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
	s.mustBeLive()
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

// Initialized reports whether Initialize has been called.
func (s *SVD) Initialized() bool { return s.initialized }

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
	s.mustBeLive()
	if !s.Initialized() {
		panic("stream: SVD not initialized; call Initialize with the first batch")
	}
}

// Initialize seeds the decomposition with the first batch A_0 (M×B): a QR
// factorization followed by an SVD of the small R factor (Algorithm 1,
// steps I1–I2). The batch is read, never adopted: it is transposed into
// FirstBatch's rows and seeded from there by InitializeFilled.
func (s *SVD) Initialize(a *mat.Dense) error {
	m, b := a.Dims()
	a.TInto(s.FirstBatch(m, b))
	return s.InitializeFilled()
}

// FirstBatch returns the b×m rows to write the first batch into,
// transposed (row j holds snapshot j's m values) as BatchRows hands out
// every later batch, for InitializeFilled to seed from: the first b rows
// of the (K+b)×m buffer the engine keeps for good. The seeding writes the
// modes over the leading rows of the batch, so a caller that decodes the
// batch straight into them holds no copy of it, and B-wide updates never
// regrow the buffer. On a distributed engine m is this rank's rows.
func (s *SVD) FirstBatch(m, b int) *mat.Dense {
	s.mustBeLive()
	if s.initialized {
		panic(initializedTwice)
	}
	if m == 0 || b == 0 {
		panic("stream: empty initial batch")
	}
	s.buf = s.pooledBuf(s.opts.K+b, m)
	s.buf.ViewRows(0, b, &s.batch)
	s.filled = b
	return &s.batch
}

// InitializeFilled is Initialize for a first batch already written into
// FirstBatch, the call that must come right before it: Algorithm 1's
// steps I1–I2 as the update's own rotation, whose factor step on a
// distributed engine is Listing 4's distributed QR, exactly as the serial
// engine's is a local QR. The modes are written over the first rows of
// the batch. An error leaves the engine dead.
func (s *SVD) InitializeFilled() error {
	s.mustBeLive()
	if s.initialized {
		panic(initializedTwice)
	}
	b := s.filled
	if b == 0 {
		panic("stream: InitializeFilled without FirstBatch")
	}
	s.filled = 0
	at := s.ws.ViewRows(s.buf, 0, b)
	err := s.rotate(at, s.opts.LowRank)
	s.ws.PutView(at)
	if err != nil {
		return err
	}
	s.rows = s.buf.Cols()
	s.snapshots = b
	s.initialized = true
	return nil
}

// initializedTwice is the panic of a second FirstBatch or InitializeFilled.
const initializedTwice = "stream: Initialize called twice; use IncorporateData for new batches"

// bufPool holds the buffers of released engines, for the next FirstBatch
// or BatchRows growth in the process to take instead of a fresh
// allocation. A fresh buffer of M-long rows takes its page faults at its
// first touch (1 MiB at M = 4096, K = B = 16); a pooled one is resident.
var bufPool sync.Pool

// poisonReleased makes Release fill each buffer it pools with NaN, so a
// later engine that read a released buffer's stale contents would show it
// in its modes and spectrum.
var poisonReleased atomic.Bool

// PoisonReleased switches the NaN fill of released buffers on or off and
// returns the previous setting. It is for tests.
func PoisonReleased(on bool) bool { return poisonReleased.Swap(on) }

// pooledBuf returns an r×c matrix with unspecified contents: a pooled
// buffer when the pool offers one that holds r·c values and at most twice
// that, so a small engine never pins a big one (a pooled buffer outside
// that range is dropped), and fresh storage otherwise.
func (s *SVD) pooledBuf(r, c int) *mat.Dense {
	need := r * c
	if d, ok := bufPool.Get().(*mat.Dense); ok {
		if data := d.RawData(); cap(data) >= need && cap(data) <= 2*need {
			d.Wrap(r, c, data[:need])
			return d
		}
	}
	return s.ws.GetUninit(r, c)
}

// Release hands the engine's buffer to the pool the next FirstBatch or
// BatchRows growth in the process takes from, and retires the engine:
// every later call that reads or changes the decomposition panics, and
// no matrix it handed out (ModeRows, FirstBatch, BatchRows) may be used
// again. Matrices copied out of it (Modes, a clone) stay the caller's. An
// engine that is never released gives nothing back. Releasing twice is a
// no-op.
//
// Only a buffer sized for a batch, K+b rows, is pooled. A Seed's exact k
// ≤ K rows fit no FirstBatch of the same M, and each allocation takes one
// buffer from the pool: a misfit taken first is dropped, and the engine
// allocates although a fitting buffer is pooled behind it.
func (s *SVD) Release() {
	if s.released {
		return
	}
	s.released = true
	if s.buf != nil && s.buf.Rows() > s.opts.K {
		if poisonReleased.Load() {
			data := s.buf.RawData()
			data = data[:cap(data)]
			for i := range data {
				data[i] = math.NaN()
			}
		}
		bufPool.Put(s.buf)
	}
	s.buf, s.top, s.batch = nil, mat.Dense{}, mat.Dense{}
}

// mustBeLive panics on a released engine.
func (s *SVD) mustBeLive() {
	if s.released {
		panic("stream: SVD used after Release")
	}
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
		// The old buffer goes to the GC, not to either pool, so the
		// engine holds one buffer of M-long rows, not two.
		grown := s.pooledBuf(s.opts.K+b, m)
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

// rotate is the shared body of the seed and every update: the engine's
// step factors the stacked matrix held column by column in at (the leading
// rows of buf) and writes the new modes mode-major over at's first rows,
// and the retained singular values it returns are kept alongside.
func (s *SVD) rotate(at *mat.Dense, lowRank bool) error {
	d, err := s.step(s, at, lowRank)
	if err != nil {
		return err
	}
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

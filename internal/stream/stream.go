// Package stream implements the serial streaming (online) SVD of Levy &
// Lindenbaum (paper §3.1, Algorithm 1, Listing 1): the truncated left
// singular vectors of a growing snapshot matrix are updated batch by batch,
// with a forget factor ff weighting the contribution of past batches.
//
// The streaming state after ingesting batches A_0 … A_i approximates the
// truncated SVD of [ff^i·A_0 | … | ff·A_{i−1} | A_i]; with ff = 1 and K at
// least the matrix rank it reproduces the one-shot SVD exactly.
package stream

import (
	"fmt"

	"goparsvd/internal/linalg"
	"goparsvd/internal/mat"
	"goparsvd/internal/rla"
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
	if o.FF <= 0 || o.FF > 1 {
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
// with Initialize, then feed batches with IncorporateData.
//
// The modes are held mode-major: the first k rows of buf, row j being mode
// j (column j of U), k = min(K, columns seen). Algorithm 1 only ever reads
// the modes back as the rows ff·d_j·u_jᵀ stacked on top of the next batch's
// Aᵀ, so they stay in the buffer the update factors in place: the next
// update scales them where they lie, stacks the batch under them, and the
// QR's apply writes the new modes back over them.
type SVD struct {
	opts        Options
	buf         *mat.Dense // the update's factored buffer, one row of M values per stacked column
	top         mat.Dense  // view of buf's first k rows: the modes, mode-major
	singular    []float64
	rows        int
	iterations  int
	snapshots   int
	initialized bool

	// modes is the M×k copy Modes builds on demand; nil until asked for
	// after the latest update.
	modes *mat.Dense

	// ws recycles every temporary of the update across iterations; once
	// batch shapes are steady the per-batch update allocates nothing.
	ws mat.Workspace
}

// New returns an empty streaming SVD with the given options.
func New(opts Options) *SVD {
	return &SVD{opts: opts.validated()}
}

// Restore rebuilds a streaming SVD from previously captured state (the
// checkpoint/restart path): the current modes (M×k), singular values and
// counters. The modes are transposed once into the engine's mode-major
// buffer; the caller keeps the matrix it passed.
//
// Every structural invariant the streaming update relies on is checked
// here, so a corrupted checkpoint fails loudly at load time rather than
// deep inside the next IncorporateData call.
func Restore(opts Options, modes *mat.Dense, singular []float64, iterations, snapshots int) (*SVD, error) {
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("stream: Restore: %w", err)
	}
	if modes == nil {
		return nil, fmt.Errorf("stream: Restore state inconsistent: nil modes")
	}
	if modes.Rows() < 1 || modes.Cols() < 1 {
		return nil, fmt.Errorf("stream: Restore state inconsistent: empty %dx%d modes",
			modes.Rows(), modes.Cols())
	}
	if modes.Cols() != len(singular) {
		return nil, fmt.Errorf("stream: Restore state inconsistent: %d mode columns, %d singular values",
			modes.Cols(), len(singular))
	}
	// The engine never retains more than K modes, so a state claiming
	// len(singular) > K cannot have been produced by these options.
	if opts.K < len(singular) {
		return nil, fmt.Errorf("stream: Restore state inconsistent: %d singular values exceed K = %d",
			len(singular), opts.K)
	}
	if iterations < 0 || snapshots < modes.Cols() {
		return nil, fmt.Errorf("stream: Restore counters invalid: iterations=%d snapshots=%d (modes %dx%d)",
			iterations, snapshots, modes.Rows(), modes.Cols())
	}
	s := &SVD{
		opts:        opts.validated(),
		buf:         modes.T(),
		singular:    append([]float64(nil), singular...),
		rows:        modes.Rows(),
		iterations:  iterations,
		snapshots:   snapshots,
		initialized: true,
	}
	s.buf.ViewRows(0, len(singular), &s.top)
	return s, nil
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
	if !s.initialized {
		panic("stream: SVD not initialized; call Initialize with the first batch")
	}
}

// Initialize seeds the decomposition with the first batch A_0 (M×B): a QR
// factorization followed by an SVD of the small R factor (Algorithm 1,
// steps I1–I2).
func (s *SVD) Initialize(a *mat.Dense) *SVD {
	if s.initialized {
		panic("stream: Initialize called twice; use IncorporateData for new batches")
	}
	m, b := a.Dims()
	if m == 0 || b == 0 {
		panic("stream: empty initial batch")
	}
	s.buf = s.ws.GetUninit(b, m)
	a.TInto(s.buf)
	s.rotate(s.buf)
	s.rows = m
	s.snapshots = b
	s.initialized = true
	return s
}

// IncorporateData ingests a new batch A_i (M×B), updating the truncated
// modes and singular values (Algorithm 1, steps 1–5):
//
//	[ff·U_{i−1}·D_{i−1} | A_i] = U′·D′   (QR)
//	D′ = Ũ·D̃·Ṽᵀ                        (small SVD)
//	U_i = U′·Ũ[:, :K],  D_i = D̃[:K]
func (s *SVD) IncorporateData(a *mat.Dense) *SVD {
	s.mustBeInitialized()
	m, b := a.Dims()
	if m != s.rows {
		panic(fmt.Sprintf("stream: batch has %d rows, want %d", m, s.rows))
	}
	if b == 0 {
		return s
	}
	// The stack [ff·U·diag(D) | A_i] is held column by column, the layout
	// the QR factors in place: its first k0 rows are the modes already in
	// the buffer, scaled where they lie (Listing 1: m_ap = ff·U·diag(D)),
	// and the batch is transposed in under them. The buffer grows to
	// (K+B)×M once; every temporary comes from the iteration workspace, so
	// the steady-state update performs no heap allocations.
	k0 := len(s.singular)
	if s.buf.Rows() < k0+b {
		// Not pooled: the old buffer goes to the GC, so the engine holds
		// one buffer of M-long rows, not two.
		grown := s.ws.GetUninit(s.opts.K+b, m)
		copy(grown.RawData(), s.top.RawData())
		s.buf = grown
	}
	at := s.ws.ViewRows(s.buf, 0, k0+b)
	d := at.RawData()
	for j, dj := range s.singular {
		row := d[j*m : (j+1)*m]
		for i, v := range row {
			row[i] = s.opts.FF * v * dj
		}
	}
	bot := s.ws.ViewRows(at, k0, k0+b)
	a.TInto(bot)
	s.ws.PutView(bot)
	s.rotate(at)
	s.ws.PutView(at)
	s.iterations++
	s.snapshots += b
	return s
}

// rotate is the shared body of both steps: it factors the stacked matrix
// held column by column in at (the leading rows of buf), takes the small
// SVD of R, and writes the new modes U′·Ũ[:, :K] — Q applied to Ũ's
// leading columns, never formed — mode-major over at's first rows, with
// the retained singular values alongside.
func (s *SVD) rotate(at *mat.Dense) {
	f, r := linalg.FactorQR(&s.ws, at)
	u, d := s.smallSVD(r)
	s.ws.Put(r)
	k := min(s.opts.K, len(d))
	usub := s.ws.GetUninit(u.Rows(), k)
	u.SliceColsInto(usub, 0, k)
	f.MulQInPlace(&s.ws, usub)
	f.Release(&s.ws)
	s.ws.Put(usub)
	s.ws.Put(u)
	s.singular = append(s.singular[:0], d[:k]...)
	s.ws.PutFloats(d)
	s.buf.ViewRows(0, k, &s.top)
	s.ws.Put(s.modes) // the previous Modes copy is stale
	s.modes = nil
}

// smallSVD factorizes the small (batch-sized) matrix produced by the QR
// step, optionally with the randomized algorithm. Singular values are
// returned in descending order, which subsumes Listing 1's argsort. The
// returned factors are workspace-owned; the caller puts them back.
func (s *SVD) smallSVD(r *mat.Dense) (*mat.Dense, []float64) {
	if s.opts.LowRank {
		t := min(r.Rows(), r.Cols())
		u, d, err := rla.LowRankSVDWith(&s.ws, r, min(s.opts.K, t), s.opts.RLA)
		if err != nil {
			// Options are validated before ingest and r is never empty
			// here, so rla cannot reject the rank; a failure is a broken
			// internal invariant, not a caller mistake.
			panic(fmt.Sprintf("stream: low-rank small SVD: %v", err))
		}
		return u, d
	}
	return linalg.SVDLeftWith(&s.ws, r)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

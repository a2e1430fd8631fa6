// Package core holds the engines behind goparsvd's public API (package
// parsvd, the module root), a Go reproduction of the PyParSVD library
// (Maulik & Mengaldo, SC 2021). It composes the building blocks of the
// paper — the streaming SVD of Levy & Lindenbaum (internal/stream), a
// distributed tall-skinny QR (internal/tsqr) and randomized linear algebra
// (internal/rla) — behind the same two-class factory the Python package
// exposes:
//
//   - NewSerial builds ParSVD_Serial: single-process streaming truncated
//     SVD.
//   - Parallel is ParSVD_Parallel: every rank holds a row block of the
//     snapshot matrix, and the seeding batch and every streaming update
//     run a distributed QR plus a small root SVD.
//   - NewBlocked builds ParSVD_Parallel in one process: the same
//     distributed QR over row blocks, with no ranks to talk to.
//
// All run the same streaming update, internal/stream's: Parallel and
// NewBlocked only swap its factor step for the distributed QR, as
// PyParSVD's parallel incorporate_data swaps np.linalg.qr for
// parallel_qr. Both also seed through that update, as the serial engine
// does, rather than by the paper's APMOS initialization (Listing 3): APMOS
// forms each rank's Gram matrix and divides by its singular values, which
// loses orthogonality at the Gram's roundoff floor. internal/apmos keeps
// APMOS for the paper's Fig. 1 scaling experiment (internal/scaling).
package core

import (
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/rla"
	"goparsvd/internal/stream"
)

// Options configures either engine.
type Options struct {
	// K is the number of modes (truncated left singular vectors) retained.
	K int
	// ForgetFactor is Algorithm 1's ff ∈ (0, 1]; the paper's experiments
	// use 0.95, and 1.0 recovers the one-shot SVD.
	ForgetFactor float64
	// LowRank replaces every dense SVD in the pipeline with the
	// randomized variant (paper §3.3).
	LowRank bool
	// RLA tunes the randomized SVD; zero value means rla.DefaultOptions.
	RLA rla.Options
}

// Validate reports whether the options describe a usable configuration.
// It is the error-returning twin of validated, for callers (the public
// parsvd facade, a worker's engine spec) that must not panic. Every option
// is the streaming engine's, checked by stream.Options.Validate.
func (o Options) Validate() error { return o.streamOptions().Validate() }

// Validated is Validate returning the options with their defaults filled
// in (a zero RLA becomes rla.DefaultOptions()): the options an engine
// built from o runs with, and the ones its checkpoints record.
func (o Options) Validated() (Options, error) {
	if err := o.Validate(); err != nil {
		return o, err
	}
	if o.RLA.IsZero() {
		o.RLA = rla.DefaultOptions()
	}
	return o, nil
}

func (o Options) validated() Options {
	o, err := o.Validated()
	if err != nil {
		panic(err)
	}
	return o
}

// streamOptions is the streaming engine's share of the options.
func (o Options) streamOptions() stream.Options {
	return stream.Options{K: o.K, FF: o.ForgetFactor, LowRank: o.LowRank, RLA: o.RLA}
}

// NewSerial constructs the single-process streaming engine
// (ParSVD_Serial): internal/stream's engine, with its accessors and its
// Initialize and IncorporateData (Listing 1).
func NewSerial(opts Options) *stream.SVD {
	return stream.New(opts.validated().streamOptions())
}

// NewBlocked constructs ParSVD_Parallel in one process: internal/stream's
// engine whose factor step is Listing 4's TSQR over the snapshot matrix
// split into ranks row blocks (stream.NewBlocked), so its modes are those
// of a ranks-rank Parallel world fed the same batches, bit for bit.
func NewBlocked(opts Options, ranks int) *stream.SVD {
	return stream.NewBlocked(opts.validated().streamOptions(), ranks)
}

// Parallel is the distributed streaming SVD engine (ParSVD_Parallel). Each
// rank constructs its own Parallel around the communicator and its row
// block of the data; the instances cooperate via MPI-style collectives.
//
// Once initialized it is one rank of the streaming engine, whose factor
// step is the distributed QR: IncorporateData and the accessors are the
// engine's, and Modes is this rank's M_i×K block of the modes.
type Parallel struct {
	*stream.SVD // nil until Initialize
	opts        Options
	comm        *mpi.Comm
	// seed is the (K+B)×M_i buffer FirstBatch allocated, until the
	// seeding adopts it.
	seed *mat.Dense
	// gathered holds, at rank 0, the mode blocks GatherModeRows returns:
	// rank 0's own rows, and every other rank's as a view of the payload
	// it arrived in, until ReleaseModeRows hands the payloads back.
	gathered []*mat.Dense
}

// NewParallel constructs a parallel engine bound to one rank of a
// communicator.
func NewParallel(c *mpi.Comm, opts Options) *Parallel {
	if c == nil {
		panic("core: NewParallel needs a communicator; use NewSerial for single-process runs")
	}
	return &Parallel{opts: opts.validated(), comm: c}
}

// Options returns the validated options the engine was built with.
func (p *Parallel) Options() Options { return p.opts }

// FirstBatch returns the b×m rows to write this rank's block of the first
// batch into, transposed (row j holds snapshot j's m values) as BatchRows
// hands out every later batch, for InitializeFilled to seed from: the
// first b rows of the (K+b)×m buffer the engine keeps for good. The
// seeding writes the modes over the leading rows of the batch, so a caller
// that decodes the batch straight into them holds no copy of it, and the
// buffer the updates factor is allocated once.
func (p *Parallel) FirstBatch(m, b int) *mat.Dense {
	if p.SVD != nil {
		panic("core: FirstBatch after Initialize")
	}
	p.seed = mat.New(p.opts.K+b, m)
	rows := new(mat.Dense)
	p.seed.ViewRows(0, b, rows)
	return rows
}

// Initialize seeds the decomposition with this rank's M_i×B block of the
// first batch, which is read, never adopted: it is transposed into
// FirstBatch's rows and seeded from there by InitializeFilled.
func (p *Parallel) Initialize(a *mat.Dense) error {
	m, b := a.Dims()
	a.TInto(p.FirstBatch(m, b))
	return p.InitializeFilled()
}

// InitializeFilled seeds the decomposition with this rank's block of the
// first batch, already written into FirstBatch (the call that must come
// before it), by the streaming update's own rotation
// (stream.InitializeDistributed): Listing 4's distributed QR of the batch,
// the (optionally randomized) SVD of the global R at rank 0, broadcast to
// every rank, and Q applied in place, exactly as the serial engine seeds
// with a local QR. Every later batch goes through IncorporateData, the
// same step: the paper's Listing 2 `incorporate_data` → Listing 4
// `parallel_qr`.
//
// The modes are written over the first rows of the batch, in the (K+B)×M_i
// buffer the engine keeps, so the first B-wide update stacks its batch
// under them without regrowing it. Calling it twice panics; an error (a
// failed collective, a peer's bad factor) leaves the engine dead.
func (p *Parallel) InitializeFilled() error {
	if p.SVD != nil {
		panic("core: Initialize called twice")
	}
	buf := p.seed
	if buf == nil {
		panic("core: InitializeFilled without FirstBatch")
	}
	p.seed = nil
	svd, err := stream.InitializeDistributed(p.comm, p.opts.streamOptions(), buf, buf.Rows()-p.opts.K)
	if err != nil {
		return err
	}
	p.SVD = svd
	return nil
}

// GatherModeRows assembles the full mode matrix at rank 0 (the paper's
// `_gather_modes`) mode-major, as the K×M matrix Uᵀ held in column blocks,
// one per rank in rank order: each rank sends its K×M_i ModeRows as they
// lie, rank 0's block is its own rows in place, and every other rank's is
// the payload its message arrived in (mpi.Comm.GatherMatrixViews), so no
// copy of the modes is made. Other ranks receive nil. core.State's
// ModeBlocks and launch.HashModeRows read the blocks without stacking
// them. They are valid until ReleaseModeRows or the next gather, which
// hand the payloads back to the fabric for later messages — so a steady
// sequence of gathers allocates nothing — and rank 0's own block only
// until the next update. A failed gather leaves the engine dead.
func (p *Parallel) GatherModeRows() ([]*mat.Dense, error) {
	rows := p.ModeRows()
	if p.comm.Rank() != 0 {
		return nil, p.comm.GatherMatrixViews(0, rows, nil)
	}
	if p.gathered == nil {
		p.gathered = make([]*mat.Dense, p.comm.Size())
		for r := 1; r < len(p.gathered); r++ {
			p.gathered[r] = new(mat.Dense)
		}
	}
	p.ReleaseModeRows()
	p.gathered[0] = rows
	if err := p.comm.GatherMatrixViews(0, rows, p.gathered); err != nil {
		return nil, err
	}
	return p.gathered, nil
}

// ReleaseModeRows hands the payloads the last GatherModeRows returned back
// to the fabric once the caller is done with the blocks. It is a no-op
// off rank 0 and when nothing is held.
func (p *Parallel) ReleaseModeRows() {
	if p.gathered != nil {
		p.comm.ReleaseViews(0, p.gathered)
	}
}

// ModeMatrix returns, in fresh storage, the M×K mode matrix whose
// transpose the mode-major blocks hold side by side (K×M_0 | K×M_1 | …),
// as GatherModeRows returns them; one block is a plain ModeRows.
func ModeMatrix(blocks ...*mat.Dense) *mat.Dense {
	m := 0
	for _, b := range blocks {
		m += b.Cols()
	}
	out := mat.New(m, blocks[0].Rows())
	var v mat.Dense
	off := 0
	for _, b := range blocks {
		out.ViewRows(off, off+b.Cols(), &v)
		b.TInto(&v)
		off += b.Cols()
	}
	return out
}

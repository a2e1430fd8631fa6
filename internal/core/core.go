// Package core holds what goparsvd's engines (internal/stream) share
// beyond the streaming update itself: the distributed rank's mode gather
// (Parallel, the paper's `_gather_modes`) and the checkpoint codec (State,
// WriteState, ReadState). Every engine — ParSVD_Serial, and
// ParSVD_Parallel in one process or as one rank of a world — is a
// stream.SVD that differs only in its factor step, as PyParSVD's parallel
// incorporate_data swaps np.linalg.qr for parallel_qr. A distributed rank
// seeds through that update too, rather than by the paper's APMOS
// initialization (Listing 3): APMOS forms each rank's Gram matrix and
// divides by its singular values, which loses orthogonality at the Gram's
// roundoff floor. internal/apmos keeps APMOS for the paper's Fig. 1
// scaling experiment (internal/scaling).
package core

import (
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/rla"
	"goparsvd/internal/stream"
)

// Options is NewParallel's parameter: stream.Options with FF named
// ForgetFactor. It stays only because the bench module builds its
// distributed engine from it; it goes when that module moves to
// stream.Options.
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

// Validate reports whether the options describe a usable configuration
// (stream.Options.Validate), for a worker that must refuse a bad engine
// spec before it joins its mesh.
func (o Options) Validate() error { return o.streamOptions().Validate() }

// streamOptions is o as the streaming engine's options.
func (o Options) streamOptions() stream.Options {
	return stream.Options{K: o.K, FF: o.ForgetFactor, LowRank: o.LowRank, RLA: o.RLA}
}

// Parallel is one rank of the distributed streaming SVD engine
// (ParSVD_Parallel). Each rank constructs its own Parallel around the
// communicator and its row block of the data; the instances cooperate via
// MPI-style collectives.
//
// It is one rank of the streaming engine whose factor step is the
// distributed QR (stream.NewDistributed): seeding, IncorporateData, the
// accessors and Options are the engine's, and Modes is this rank's M_i×K
// block of the modes. Parallel adds the gather of the global modes.
type Parallel struct {
	*stream.SVD
	comm *mpi.Comm
	// gathered holds, at rank 0, the mode blocks GatherModeRows returns:
	// rank 0's own rows, and every other rank's as a view of the payload
	// it arrived in, until ReleaseModeRows hands the payloads back.
	gathered []*mat.Dense
}

// NewParallel constructs a parallel engine bound to one rank of a
// communicator. It panics on invalid options.
func NewParallel(c *mpi.Comm, opts Options) *Parallel {
	if c == nil {
		panic("core: NewParallel needs a communicator; use stream.New for single-process runs")
	}
	return &Parallel{SVD: stream.NewDistributed(c, opts.streamOptions()), comm: c}
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

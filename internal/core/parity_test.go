package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"goparsvd/internal/linalg"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/rla"
	"goparsvd/internal/stream"
	"goparsvd/internal/testutil"
	"goparsvd/internal/tsqr"
)

// refParallel is one rank of the distributed update as it ran before
// Parallel shared the streaming engine's body: M_i×K modes, the scaled
// stack built by a transposing pass, the gather QR, the small SVD at rank
// 0 broadcast to every rank (Ũ and d as two messages), qc·Ũ_k, and Q
// applied into a separate destination. It seeds as the engine does, by the
// update with no modes stacked over the first batch.
type refParallel struct {
	opts     stream.Options
	comm     *mpi.Comm
	ulocal   *mat.Dense
	singular []float64
	ws       mat.Workspace
}

func (p *refParallel) initialize(a *mat.Dense) { p.incorporate(a) }

func (p *refParallel) incorporate(a *mat.Dense) {
	k0 := 0 // no modes stacked over the first batch
	if p.ulocal != nil {
		k0 = p.ulocal.Cols()
	}
	at := p.ws.GetUninit(k0+a.Cols(), a.Rows())
	if k0 > 0 {
		top := p.ws.ViewRows(at, 0, k0)
		mat.MulDiagScaledTInto(top, p.opts.FF, p.ulocal, p.singular)
		p.ws.PutView(top)
	}
	bot := p.ws.ViewRows(at, k0, at.Rows())
	a.TInto(bot)
	p.ws.PutView(bot)
	f, qc, r, err := tsqr.GatherQRFactor(&p.ws, p.comm, at)
	must(err)
	u := new(mat.Dense)
	var s []float64
	if p.comm.Rank() == 0 {
		if p.opts.LowRank {
			var err error
			u, s, err = rla.LowRankSVDWith(&p.ws, r, min(p.opts.K, r.Rows(), r.Cols()), p.opts.RLA)
			if err != nil {
				panic(err)
			}
		} else {
			u, s = linalg.SVDLeftWith(&p.ws, r)
		}
	}
	must(p.comm.BcastMatrixInto(0, u))
	s, err = p.comm.BcastFloatsInto(0, s)
	must(err)
	k := min(p.opts.K, len(s))
	x := mat.Mul(qc, u.SliceCols(0, k))
	next := mat.New(a.Rows(), k)
	f.MulQInto(&p.ws, next, x)
	f.Release(&p.ws)
	p.ws.Put(at)
	p.ulocal = next
	p.singular = s[:k]
}

// TestParallelMatchesReference replays Initialize plus 200 updates on the
// engine and on refParallel side by side, in one in-process world: the
// gathered modes and the spectrum must agree to 1e-13 relative after every
// update. The short-block shape gives every rank fewer rows than the
// retained modes, so each rank's block of Q is applied to more columns
// than it has rows.
//
// The batches come from a planted spectrum, σ_j = 2⁻ʲ over an orthonormal
// basis of the whole space, so consecutive modes stay well separated. On
// white-noise batches at the short-block shape neighbouring singular values
// nearly coincide and the modes amplify roundoff: there refParallel against
// itself, with one mode entry moved by one ulp after Initialize, parts by
// 2e-13 within 30 updates at ff = 1 and by 1e-12 at ff = 0.95, while the
// two sequences differ only in the rounding of Q's apply.
func TestParallelMatchesReference(t *testing.T) {
	cases := []struct {
		name           string
		m, p, k, b0, b int
	}{
		{"tall blocks", 96, 3, 6, 8, 4},
		{"short blocks", 10, 4, 5, 3, 3},
	}
	for _, tc := range cases {
		for _, ff := range []float64{1, 0.95} {
			for _, lowRank := range []bool{false, true} {
				name := fmt.Sprintf("%s/ff=%g/lowrank=%t", tc.name, ff, lowRank)
				t.Run(name, func(t *testing.T) {
					checkParallelMatchesReference(t, tc.m, tc.p, tc.k, tc.b0, tc.b,
						Options{K: tc.k, ForgetFactor: ff, LowRank: lowRank})
				})
			}
		}
	}
}

func checkParallelMatchesReference(t *testing.T, m, p, k, b0, b int, opts Options) {
	const updates = 200
	var mu sync.Mutex
	var fail string
	mpi.MustRun(p, func(c *mpi.Comm) {
		// Every rank draws the same global batches and keeps its rows.
		rng := testutil.NewRand(int64(100*m + 10*k + b))
		basis := testutil.RandomOrthonormal(m, m, rng)
		scale := make([]float64, m)
		for j := range scale {
			scale[j] = math.Pow(0.5, float64(j))
		}
		lo, hi := c.Rank()*m/p, (c.Rank()+1)*m/p
		batch := func(b int) *mat.Dense {
			a := mat.Mul(mat.MulDiag(basis, scale), testutil.RandomDense(m, b, rng))
			return a.SliceRows(lo, hi)
		}
		eng := NewParallel(c, opts)
		ref := &refParallel{opts: eng.Options(), comm: c}
		first := batch(b0)
		must(eng.Initialize(first))
		ref.initialize(first)
		for i := 0; i <= updates; i++ {
			if i > 0 {
				a := batch(b)
				must(eng.IncorporateData(a))
				ref.incorporate(a)
			}
			blocks := gatherModes(eng)
			var want *mat.Dense
			if c.Rank() == 0 {
				views := []*mat.Dense{ref.ulocal}
				for len(views) < c.Size() {
					views = append(views, new(mat.Dense))
				}
				must(c.GatherMatrixViews(0, ref.ulocal, views))
				want = stackRows(views)
			} else {
				must(c.GatherMatrixViews(0, ref.ulocal, nil))
			}
			if c.Rank() != 0 {
				continue
			}
			got := ModeMatrix(blocks...)
			if msg := compareState(got, eng.SingularValues(), want, ref.singular); msg != "" {
				mu.Lock()
				if fail == "" {
					fail = fmt.Sprintf("update %d: %s", i, msg)
				}
				mu.Unlock()
			}
		}
	})
	if fail != "" {
		t.Fatal(fail)
	}
}

// compareState reports how the engine's gathered modes and spectrum depart
// from the reference's beyond 1e-13 relative, or "" when they agree.
func compareState(got *mat.Dense, gotS []float64, want *mat.Dense, wantS []float64) string {
	if len(gotS) != len(wantS) || got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		return fmt.Sprintf("%d singular values and %dx%d modes, reference %d and %dx%d",
			len(gotS), got.Rows(), got.Cols(), len(wantS), want.Rows(), want.Cols())
	}
	for j := range gotS {
		if !(math.Abs(gotS[j]-wantS[j]) <= 1e-13*wantS[0]) {
			return fmt.Sprintf("σ_%d = %.17g, reference %.17g", j, gotS[j], wantS[j])
		}
	}
	d := mat.Sub(got, want).MaxAbs()
	if !(d <= 1e-13*want.MaxAbs()) {
		return fmt.Sprintf("modes differ by %g", d)
	}
	return ""
}

// stackRows copies the blocks, one under the other, into a fresh matrix.
func stackRows(blocks []*mat.Dense) *mat.Dense {
	rows := 0
	for _, b := range blocks {
		rows += b.Rows()
	}
	out := mat.New(rows, blocks[0].Cols())
	var v mat.Dense
	off := 0
	for _, b := range blocks {
		out.ViewRows(off, off+b.Rows(), &v)
		v.CopyFrom(b)
		off += b.Rows()
	}
	return out
}

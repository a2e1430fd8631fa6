package tsqr

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/testutil"
)

// splitRows partitions a into p contiguous row blocks as evenly as possible.
func splitRows(a *mat.Dense, p int) []*mat.Dense {
	m := a.Rows()
	blocks := make([]*mat.Dense, p)
	base, rem := m/p, m%p
	off := 0
	for r := 0; r < p; r++ {
		rows := base
		if r < rem {
			rows++
		}
		blocks[r] = a.SliceRows(off, off+rows)
		off += rows
	}
	return blocks
}

// runDistributedQR executes GatherQRWith across p ranks and reassembles the
// global Q from the per-rank blocks. Returns the stacked Q and the R
// broadcast from rank 0.
func runDistributedQR(t *testing.T, a *mat.Dense, p int) (q, r *mat.Dense) {
	t.Helper()
	blocks := splitRows(a, p)
	qBlocks := make([]*mat.Dense, p)
	var rOut *mat.Dense
	var mu sync.Mutex
	mpi.MustRun(p, func(c *mpi.Comm) {
		ql, rb := GatherQRWith(nil, c, blocks[c.Rank()])
		if rb == nil {
			rb = new(mat.Dense)
		}
		if err := c.BcastMatrixInto(0, rb); err != nil {
			panic(err)
		}
		mu.Lock()
		qBlocks[c.Rank()] = ql
		if c.Rank() == 0 {
			rOut = rb
		}
		mu.Unlock()
	})
	return stackRows(qBlocks), rOut
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

func checkAgainstSerial(t *testing.T, name string, a, q, r *mat.Dense, tol float64) {
	t.Helper()
	testutil.CheckOrthonormalColumns(t, name+"/Q", q, tol)
	testutil.CheckUpperTriangular(t, name+"/R", r, tol)
	if !mat.EqualApprox(mat.Mul(q, r), a, tol) {
		t.Fatalf("%s: Q·R != A", name)
	}
	qs, rs := SerialQR(a)
	// With the shared sign convention the distributed factors must match
	// the serial ones directly (not just up to sign).
	if !mat.EqualApprox(r, rs, tol) {
		t.Fatalf("%s: distributed R differs from serial R by %g",
			name, mat.Sub(r, rs).MaxAbs())
	}
	if !mat.EqualApprox(q, qs, tol) {
		t.Fatalf("%s: distributed Q differs from serial Q by %g",
			name, mat.Sub(q, qs).MaxAbs())
	}
}

// TestGatherQRFactorRefusesWideFactor: a peer R factor of another width is
// bytes from a rank running another shape, so rank 0 returns an error
// naming it, and the peer waiting for its Q block gets ErrAborted once the
// failing rank aborts the world.
func TestGatherQRFactorRefusesWideFactor(t *testing.T) {
	_, err := mpi.Run(2, func(c *mpi.Comm) {
		at := testutil.RandomDense(4+c.Rank(), 10, testutil.NewRand(3)) // rank 1 is one column wider
		_, _, _, err := GatherQRFactor(nil, c, at)
		if c.Rank() == 0 {
			panic(err) // the harness aborts the world, as an engine's caller does
		}
		if !errors.Is(err, mpi.ErrAborted) {
			t.Errorf("rank 1: %v, want ErrAborted", err)
		}
	})
	var re *mpi.RankError
	if !errors.As(err, &re) || re.Rank != 0 || !strings.Contains(fmt.Sprint(re.Value), "rank 1 sent a 5x5 R factor, want at most 4x4") {
		t.Fatalf("err = %v, want rank 0's width error", err)
	}
}

func TestGatherQRMatchesSerial(t *testing.T) {
	rng := testutil.NewRand(1)
	a := testutil.RandomDense(64, 6, rng)
	for _, p := range []int{1, 2, 4} {
		q, r := runDistributedQR(t, a, p)
		checkAgainstSerial(t, "gather", a, q, r, 1e-11)
	}
}

func TestGatherQRUnevenBlocks(t *testing.T) {
	rng := testutil.NewRand(2)
	a := testutil.RandomDense(61, 5, rng) // 61 rows across 4 ranks: 16,15,15,15
	q, r := runDistributedQR(t, a, 4)
	checkAgainstSerial(t, "gather-uneven", a, q, r, 1e-11)
}

func TestGatherQRShortBlocks(t *testing.T) {
	// Blocks with fewer rows than columns (m_i < n) exercise the
	// variable-height R stacking path.
	rng := testutil.NewRand(3)
	a := testutil.RandomDense(14, 6, rng) // 4 ranks → blocks of 4,4,3,3 rows < 6 cols
	q, r := runDistributedQR(t, a, 4)
	checkAgainstSerial(t, "gather-short", a, q, r, 1e-11)
}

func TestGatherQRWideGlobal(t *testing.T) {
	// Fewer global rows than columns (M = 5 < n = 8): Q is M×M and R is
	// M×n, as the serial thin QR gives them.
	rng := testutil.NewRand(4)
	a := testutil.RandomDense(5, 8, rng)
	for _, p := range []int{1, 2, 3} {
		q, r := runDistributedQR(t, a, p)
		checkAgainstSerial(t, fmt.Sprintf("gather-wide/p=%d", p), a, q, r, 1e-12)
	}
}

func TestSerialQRSignConvention(t *testing.T) {
	rng := testutil.NewRand(7)
	a := testutil.RandomDense(12, 4, rng)
	_, r := SerialQR(a)
	for k := 0; k < 4; k++ {
		if r.At(k, k) < 0 {
			t.Fatalf("R[%d,%d] = %g < 0 after sign normalization", k, k, r.At(k, k))
		}
	}
}

// Property: the distributed QR reproduces the serial factorization for
// random shapes and rank counts.
func TestPropertyDistributedQRMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(6)
		n := 1 + rng.Intn(6)
		m := p*n + rng.Intn(40) // ensure every block can have >= n rows
		a := testutil.RandomDense(m, n, rng)
		blocks := splitRows(a, p)
		qBlocks := make([]*mat.Dense, p)
		var rOut *mat.Dense
		var mu sync.Mutex
		mpi.MustRun(p, func(c *mpi.Comm) {
			ql, rf := GatherQRWith(nil, c, blocks[c.Rank()])
			mu.Lock()
			qBlocks[c.Rank()] = ql
			if c.Rank() == 0 {
				rOut = rf
			}
			mu.Unlock()
		})
		q := stackRows(qBlocks)
		qs, rs := SerialQR(a)
		return mat.EqualApprox(q, qs, 1e-9) && mat.EqualApprox(rOut, rs, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 20, Rand: testutil.NewRand(9)}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

package apmos

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"goparsvd/internal/linalg"
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

// runDecompose executes APMOS over p ranks and stitches the per-rank mode
// slices back into global modes.
func runDecompose(t *testing.T, a *mat.Dense, p int, opts Options) (modes *mat.Dense, s []float64) {
	t.Helper()
	blocks := splitRows(a, p)
	modeBlocks := make([]*mat.Dense, p)
	var sOut []float64
	var mu sync.Mutex
	mpi.MustRun(p, func(c *mpi.Comm) {
		m, sv, err := Decompose(c, blocks[c.Rank()].T(), opts)
		if err != nil {
			panic(err)
		}
		mu.Lock()
		modeBlocks[c.Rank()] = m
		if c.Rank() == 0 {
			sOut = sv
		}
		mu.Unlock()
	})
	return mat.HStack(modeBlocks...).T(), sOut
}

func TestGenerateRightVectorsGramMatchesSVD(t *testing.T) {
	rng := testutil.NewRand(1)
	a := testutil.RandomDense(50, 12, rng)
	vg, sg := GenerateRightVectors(a.T(), 6)
	_, ss, vs := linalg.SVD(a)
	vs, ss = vs.SliceCols(0, 6), ss[:6]
	if !testutil.CloseSlices(sg, ss, 1e-9) {
		t.Fatalf("gram s %v vs svd s %v", sg, ss)
	}
	if err := testutil.MaxColumnError(vs, vg); err > 1e-7 {
		t.Fatalf("right vector mismatch %g", err)
	}
}

func TestGenerateRightVectorsMatchesGlobalSVD(t *testing.T) {
	rng := testutil.NewRand(2)
	a := testutil.RandomDense(60, 10, rng)
	_, s, v := linalg.SVD(a)
	vg, sg := GenerateRightVectors(a.T(), 5)
	if !testutil.CloseSlices(sg, s[:5], 1e-9) {
		t.Fatalf("singular values: %v vs %v", sg, s[:5])
	}
	if err := testutil.MaxColumnError(v.SliceCols(0, 5), vg); err > 1e-7 {
		t.Fatalf("vectors differ by %g", err)
	}
}

func TestGenerateRightVectorsClampsR1(t *testing.T) {
	rng := testutil.NewRand(3)
	a := testutil.RandomDense(20, 4, rng)
	v, s := GenerateRightVectors(a.T(), 99)
	if v.Cols() != 4 || len(s) != 4 {
		t.Fatalf("r1 not clamped: V cols %d, s %d", v.Cols(), len(s))
	}
}

func TestGenerateRightVectorsSVDPadsShortBlocks(t *testing.T) {
	// A 3×8 block has only 3 nonzero singular values; asking for r1 = 6
	// must still return 6 columns, the extra ones at roundoff level.
	rng := testutil.NewRand(4)
	a := testutil.RandomDense(3, 8, rng)
	v, s := GenerateRightVectors(a.T(), 6)
	if v.Cols() != 6 || len(s) != 6 {
		t.Fatalf("padding failed: V cols %d, s %d", v.Cols(), len(s))
	}
	_, exact, _ := linalg.SVD(a)
	if !testutil.CloseSlices(s[:3], exact[:3], 1e-9) {
		t.Fatalf("leading values %v, want %v", s[:3], exact[:3])
	}
	for _, sv := range s[3:] {
		if sv > 1e-6*s[0] {
			t.Fatalf("padded values must vanish: %v", s)
		}
	}
	testutil.CheckOrthonormalColumns(t, "V", v, 1e-10)
}

func TestDecomposeExactWhenUntruncated(t *testing.T) {
	// With r1 = N the method is exact: AᵀA = W·Wᵀ. Modes and singular
	// values must match the serial truncated SVD.
	rng := testutil.NewRand(5)
	a, _ := testutil.RandomLowRank(120, 16, 8, 1e-3, rng)
	k := 5
	opts := Options{K: k, R1: 16, R2: k}
	for _, p := range []int{1, 2, 4} {
		modes, s := runDecompose(t, a, p, opts)
		serialModes, serialS := DecomposeSerial(a, k)
		if !testutil.CloseSlices(s, serialS, 1e-8) {
			t.Fatalf("p=%d: singular values %v vs %v", p, s, serialS)
		}
		if err := testutil.MaxColumnError(serialModes, modes); err > 1e-6 {
			t.Fatalf("p=%d: mode error %g", p, err)
		}
	}
}

func TestDecomposeModesOrthonormal(t *testing.T) {
	rng := testutil.NewRand(6)
	a, _ := testutil.RandomLowRank(100, 20, 10, 1e-4, rng)
	modes, _ := runDecompose(t, a, 4, Options{K: 6, R1: 20, R2: 6})
	testutil.CheckOrthonormalColumns(t, "modes", modes, 1e-6)
}

func TestDecomposeTruncationDegradesGracefully(t *testing.T) {
	// Shrinking r1 must not catastrophically break the leading mode when
	// the spectrum decays fast (the paper's accuracy/communication trade).
	rng := testutil.NewRand(7)
	a, _ := testutil.RandomLowRank(150, 30, 4, 1e-6, rng)
	serialModes, _ := DecomposeSerial(a, 2)
	for _, r1 := range []int{30, 10, 6} {
		modes, _ := runDecompose(t, a, 3, Options{K: 2, R1: r1, R2: 2})
		if err := testutil.SubspaceError(serialModes, modes); err > 1e-4 {
			t.Fatalf("r1=%d: leading subspace error %g", r1, err)
		}
	}
}

func TestDecomposeTruncationErrorMonotonicTendency(t *testing.T) {
	// On a matrix with slow spectral decay, heavy truncation must be
	// measurably worse than no truncation.
	rng := testutil.NewRand(8)
	a := testutil.RandomDense(120, 24, rng)
	serialModes, _ := DecomposeSerial(a, 3)
	exact, _ := runDecompose(t, a, 4, Options{K: 3, R1: 24, R2: 3})
	trunc, _ := runDecompose(t, a, 4, Options{K: 3, R1: 4, R2: 3})
	errExact := testutil.SubspaceError(serialModes, exact)
	errTrunc := testutil.SubspaceError(serialModes, trunc)
	if errExact > 1e-8 {
		t.Fatalf("untruncated APMOS should be exact, error %g", errExact)
	}
	if errTrunc <= errExact {
		t.Fatalf("truncated run (%g) should be worse than exact (%g)", errTrunc, errExact)
	}
}

func TestDecomposeLowRankRootSVD(t *testing.T) {
	// The randomized root SVD must agree with the deterministic one on a
	// rapidly decaying spectrum.
	rng := testutil.NewRand(9)
	a, _ := testutil.RandomLowRank(100, 20, 6, 1e-6, rng)
	det, sDet := runDecompose(t, a, 2, Options{K: 4, R1: 20, R2: 4})
	rnd, sRnd := runDecompose(t, a, 2, Options{K: 4, R1: 20, R2: 4, LowRank: true})
	for i := range sDet {
		if math.Abs(sDet[i]-sRnd[i]) > 1e-6*(1+sDet[0]) {
			t.Fatalf("randomized singular values differ: %v vs %v", sRnd, sDet)
		}
	}
	if err := testutil.SubspaceError(det, rnd); err > 1e-5 {
		t.Fatalf("randomized modes differ: %g", err)
	}
}

func TestDecomposeSingleRankMatchesSerial(t *testing.T) {
	rng := testutil.NewRand(10)
	a := testutil.RandomDense(60, 12, rng)
	modes, s := runDecompose(t, a, 1, Options{K: 4, R1: 12, R2: 4})
	serialModes, serialS := DecomposeSerial(a, 4)
	if !testutil.CloseSlices(s, serialS, 1e-9) {
		t.Fatalf("values %v vs %v", s, serialS)
	}
	if err := testutil.MaxColumnError(serialModes, modes); err > 1e-7 {
		t.Fatalf("mode error %g", err)
	}
}

func TestDecomposeDefaults(t *testing.T) {
	opts := Options{}.withDefaults(100)
	if opts.K != 10 || opts.R1 != 50 || opts.R2 != 10 {
		t.Fatalf("defaults = %+v", opts)
	}
	opts = Options{K: 2}.withDefaults(100)
	if opts.R2 != 5 {
		t.Fatalf("small-K default R2 = %d, want 5", opts.R2)
	}
	opts = Options{K: 20, R2: 3}.withDefaults(100)
	if opts.K != 3 {
		t.Fatalf("K should clamp to R2: %d", opts.K)
	}
}

func TestDecomposeZeroSingularValueSafe(t *testing.T) {
	// A rank-1 matrix with K=3 forces 1/Λ_j division guards for Λ_j = 0.
	x := mat.New(40, 1)
	for i := 0; i < 40; i++ {
		x.Set(i, 0, float64(i+1))
	}
	y := mat.New(8, 1)
	for i := 0; i < 8; i++ {
		y.Set(i, 0, math.Sin(float64(i)))
	}
	a := mat.MulTransB(x, y)
	modes, s := runDecompose(t, a, 2, Options{K: 3, R1: 8, R2: 3})
	// The Gram-matrix path squares the condition number, so "zero" trailing
	// values surface as ~sqrt(eps)·σ₁ noise; check them relative to σ₁.
	if s[1] > 1e-7*s[0] || s[2] > 1e-7*s[0] {
		t.Fatalf("rank-1 matrix: s = %v", s)
	}
	for i := 0; i < modes.Rows(); i++ {
		for j := 0; j < modes.Cols(); j++ {
			if math.IsNaN(modes.At(i, j)) || math.IsInf(modes.At(i, j), 0) {
				t.Fatal("mode assembly produced NaN/Inf for zero singular value")
			}
		}
	}
}

// Property: for random low-rank-plus-noise matrices, untruncated APMOS
// reproduces the serial singular values for any rank count.
func TestPropertyDecomposeMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(5)
		n := 6 + rng.Intn(10)
		m := p*4 + 40 + rng.Intn(60)
		a := testutil.RandomDense(m, n, rng)
		k := 2 + rng.Intn(3)
		blocks := splitRows(a, p)
		var s []float64
		var mu sync.Mutex
		mpi.MustRun(p, func(c *mpi.Comm) {
			_, sv, err := Decompose(c, blocks[c.Rank()].T(), Options{K: k, R1: n, R2: k})
			if err != nil {
				panic(err)
			}
			if c.Rank() == 0 {
				mu.Lock()
				s = sv
				mu.Unlock()
			}
		})
		_, serialS := DecomposeSerial(a, k)
		return testutil.CloseSlices(s, serialS, 1e-7)
	}
	cfg := &quick.Config{MaxCount: 20, Rand: testutil.NewRand(11)}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDecomposeRefusesMismatchedBlocks: a peer whose block holds another
// number of snapshots sent bytes rank 0 cannot stack, so rank 0 returns an
// error naming it, and the peer waiting for the broadcast gets ErrAborted
// once the failing rank aborts the world.
func TestDecomposeRefusesMismatchedBlocks(t *testing.T) {
	rng := testutil.NewRand(43)
	blocks := []*mat.Dense{testutil.RandomDense(20, 5, rng), testutil.RandomDense(20, 6, rng)}
	_, err := mpi.Run(2, func(c *mpi.Comm) {
		_, _, err := Decompose(c, blocks[c.Rank()].T(), Options{K: 2})
		if c.Rank() == 0 {
			panic(err) // the harness aborts the world, as an engine's caller does
		}
		if !errors.Is(err, mpi.ErrAborted) {
			t.Errorf("rank 1: %v, want ErrAborted", err)
		}
	})
	var re *mpi.RankError
	if !errors.As(err, &re) || re.Rank != 0 || !strings.Contains(fmt.Sprint(re.Value), "apmos: rank 1 sent a 6x6 block, want 5 rows") {
		t.Fatalf("err = %v, want rank 0's block error", err)
	}
}

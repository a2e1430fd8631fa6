package rla

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"goparsvd/internal/linalg"
	"goparsvd/internal/mat"
	"goparsvd/internal/testutil"
)

// mustRangeFinder / mustRandomizedSVD / mustLowRankSVD unwrap the error
// returns for the tests that feed known-valid arguments.
func mustRangeFinder(t *testing.T, a *mat.Dense, k int, opts Options) *mat.Dense {
	t.Helper()
	q, err := RangeFinderWith(nil, a, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func mustRandomizedSVD(t *testing.T, a *mat.Dense, k int, opts Options) (*mat.Dense, []float64, *mat.Dense) {
	t.Helper()
	u, s, v, err := RandomizedSVDWith(nil, a, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	return u, s, v
}

func mustLowRankSVD(t *testing.T, a *mat.Dense, k int, opts Options) (*mat.Dense, []float64) {
	t.Helper()
	u, s, err := LowRankSVD(a, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	return u, s
}

func TestGaussianShapeAndMoments(t *testing.T) {
	rng := testutil.NewRand(1)
	g := Gaussian(200, 50, rng)
	if g.Rows() != 200 || g.Cols() != 50 {
		t.Fatalf("shape %dx%d", g.Rows(), g.Cols())
	}
	sum, sumSq := 0.0, 0.0
	for _, v := range g.RawData() {
		sum += v
		sumSq += v * v
	}
	n := float64(200 * 50)
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("sample mean %g too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("sample variance %g too far from 1", variance)
	}
}

func TestRangeFinderOrthonormal(t *testing.T) {
	rng := testutil.NewRand(2)
	a := testutil.RandomDense(60, 20, rng)
	q := mustRangeFinder(t, a, 5, DefaultOptions())
	testutil.CheckOrthonormalColumns(t, "Q", q, 1e-12)
	if q.Rows() != 60 || q.Cols() != 15 { // k + oversample
		t.Fatalf("Q shape %dx%d", q.Rows(), q.Cols())
	}
}

func TestRangeFinderClampsWidth(t *testing.T) {
	rng := testutil.NewRand(3)
	a := testutil.RandomDense(30, 6, rng)
	q := mustRangeFinder(t, a, 5, DefaultOptions()) // k+p = 15 > n = 6
	if q.Cols() != 6 {
		t.Fatalf("Q cols %d, want clamped to 6", q.Cols())
	}
}

func TestRangeFinderCapturesExactLowRank(t *testing.T) {
	// For an exactly rank-r matrix, ‖A − QQᵀA‖ must vanish.
	rng := testutil.NewRand(4)
	a, _ := testutil.RandomLowRank(50, 30, 4, 0, rng)
	q := mustRangeFinder(t, a, 4, DefaultOptions())
	proj := mat.Mul(q, mat.MulTransA(q, a))
	if resid := mat.Sub(a, proj).FroNorm() / a.FroNorm(); resid > 1e-10 {
		t.Fatalf("range not captured: relative residual %g", resid)
	}
}

func TestRandomizedSVDShapes(t *testing.T) {
	rng := testutil.NewRand(5)
	a := testutil.RandomDense(40, 25, rng)
	u, s, v := mustRandomizedSVD(t, a, 6, DefaultOptions())
	if u.Rows() != 40 || u.Cols() != 6 || len(s) != 6 || v.Rows() != 25 || v.Cols() != 6 {
		t.Fatalf("shapes U %dx%d s %d V %dx%d", u.Rows(), u.Cols(), len(s), v.Rows(), v.Cols())
	}
	testutil.CheckOrthonormalColumns(t, "U", u, 1e-11)
	testutil.CheckOrthonormalColumns(t, "V", v, 1e-11)
}

func TestRandomizedSVDExactOnLowRank(t *testing.T) {
	rng := testutil.NewRand(6)
	a, wantS := testutil.RandomLowRank(60, 40, 5, 0, rng)
	u, s, v := mustRandomizedSVD(t, a, 5, DefaultOptions())
	if !testutil.CloseSlices(s, wantS, 1e-9) {
		t.Fatalf("singular values %v, want %v", s, wantS)
	}
	recon := mat.MulTransB(mat.MulDiag(u, s), v)
	if rel := mat.Sub(a, recon).FroNorm() / a.FroNorm(); rel > 1e-9 {
		t.Fatalf("reconstruction error %g", rel)
	}
}

func TestRandomizedSVDMatchesDeterministicLeadingValues(t *testing.T) {
	// On a noisy low-rank matrix, the leading randomized singular values
	// must track the deterministic SVD closely.
	rng := testutil.NewRand(7)
	a, _ := testutil.RandomLowRank(80, 50, 8, 1e-4, rng)
	_, sDet, _ := linalg.SVD(a)
	opts := DefaultOptions()
	opts.PowerIters = 2
	_, sRand, _ := mustRandomizedSVD(t, a, 8, opts)
	for i := 0; i < 8; i++ {
		if math.Abs(sRand[i]-sDet[i]) > 1e-3*sDet[0] {
			t.Fatalf("s[%d]: randomized %g vs deterministic %g", i, sRand[i], sDet[i])
		}
	}
}

func TestRandomizedSVDDeterministicWithSeed(t *testing.T) {
	rng := testutil.NewRand(8)
	a := testutil.RandomDense(30, 20, rng)
	opts := DefaultOptions()
	u1, s1, _ := mustRandomizedSVD(t, a, 4, opts)
	u2, s2, _ := mustRandomizedSVD(t, a, 4, opts)
	if !testutil.CloseSlices(s1, s2, 0) || !mat.EqualApprox(u1, u2, 0) {
		t.Fatal("same seed must give identical factors")
	}
}

func TestRandomizedSVDSeedChangesSketch(t *testing.T) {
	rng := testutil.NewRand(9)
	a := testutil.RandomDense(30, 20, rng)
	o1 := Options{Oversample: 2, PowerIters: 0, Seed: 1}
	o2 := Options{Oversample: 2, PowerIters: 0, Seed: 2}
	u1, _, _ := mustRandomizedSVD(t, a, 4, o1)
	u2, _, _ := mustRandomizedSVD(t, a, 4, o2)
	// With no power iterations on a full-rank random matrix the bases
	// should differ measurably between seeds.
	if mat.EqualApprox(u1, u2, 1e-12) {
		t.Fatal("different seeds produced identical sketches")
	}
}

func TestRandomizedSVDClampsRank(t *testing.T) {
	rng := testutil.NewRand(10)
	a := testutil.RandomDense(10, 4, rng)
	u, s, v := mustRandomizedSVD(t, a, 99, DefaultOptions())
	if u.Cols() != 4 || len(s) != 4 || v.Cols() != 4 {
		t.Fatalf("rank not clamped: %d", len(s))
	}
}

func TestLowRankSVDMatchesRandomizedSVD(t *testing.T) {
	rng := testutil.NewRand(11)
	a := testutil.RandomDense(25, 15, rng)
	opts := DefaultOptions()
	u1, s1 := mustLowRankSVD(t, a, 5, opts)
	u2, s2, _ := mustRandomizedSVD(t, a, 5, opts)
	if !mat.EqualApprox(u1, u2, 0) || !testutil.CloseSlices(s1, s2, 0) {
		t.Fatal("LowRankSVD must be the left part of RandomizedSVD")
	}
}

func TestPowerIterationsImproveAccuracy(t *testing.T) {
	// With a slowly decaying spectrum, power iterations must reduce the
	// projection error ‖A − QQᵀA‖_F (averaged over a few seeds to avoid
	// flakiness from one lucky sketch).
	rng := testutil.NewRand(12)
	u := testutil.RandomOrthonormal(60, 30, rng)
	v := testutil.RandomOrthonormal(40, 30, rng)
	s := make([]float64, 30)
	for i := range s {
		s[i] = 1.0 / (1.0 + float64(i)) // harmonic decay: hard for plain sketching
	}
	a := mat.MulTransB(mat.MulDiag(u, s), v)
	resid := func(powerIters int, seed int64) float64 {
		q := mustRangeFinder(t, a, 5, Options{Oversample: 2, PowerIters: powerIters, Seed: seed})
		proj := mat.Mul(q, mat.MulTransA(q, a))
		return mat.Sub(a, proj).FroNorm()
	}
	var r0, r3 float64
	for seed := int64(1); seed <= 5; seed++ {
		r0 += resid(0, seed)
		r3 += resid(3, seed)
	}
	if r3 >= r0 {
		t.Fatalf("power iterations did not help: q=0 → %g, q=3 → %g", r0/5, r3/5)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Oversample != 10 || o.PowerIters != 0 {
		t.Fatalf("withDefaults = %+v", o)
	}
	d := DefaultOptions()
	if d.Oversample != 10 || d.PowerIters != 1 {
		t.Fatalf("DefaultOptions = %+v", d)
	}
}

// Property: randomized SVD error is bounded relative to the optimal rank-k
// error with a generous margin (Halko et al. give expectation bounds;
// we check a loose deterministic-ish version over many seeds).
func TestPropertyRandomizedErrorNearOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 20 + rng.Intn(20)
		n := 10 + rng.Intn(15)
		a := testutil.RandomDense(m, n, rng)
		k := 3 + rng.Intn(4)
		_, sDet, _ := linalg.SVD(a)
		u, s, v, err := RandomizedSVDWith(nil, a, k, Options{Oversample: 8, PowerIters: 2, Seed: seed})
		if err != nil {
			return false
		}
		recon := mat.MulTransB(mat.MulDiag(u, s), v)
		got := mat.Sub(a, recon).FroNorm()
		opt := 0.0
		for _, sv := range sDet[k:] {
			opt += sv * sv
		}
		opt = math.Sqrt(opt)
		// Allow a 3x margin over the optimal rank-k residual.
		return got <= 3*opt+1e-12
	}
	cfg := &quick.Config{MaxCount: 25, Rand: testutil.NewRand(13)}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"goparsvd/internal/mat"
	"goparsvd/internal/testutil"
)

func TestSVDTall(t *testing.T) {
	rng := testutil.NewRand(11)
	a := testutil.RandomDense(30, 6, rng)
	u, s, v := SVD(a)
	if u.Rows() != 30 || u.Cols() != 6 || len(s) != 6 || v.Rows() != 6 || v.Cols() != 6 {
		t.Fatalf("shapes: U %dx%d, s %d, V %dx%d", u.Rows(), u.Cols(), len(s), v.Rows(), v.Cols())
	}
	testutil.CheckSVD(t, "tall", a, u, s, v, 1e-11)
}

func TestSVDTallTriggersQRPath(t *testing.T) {
	// m >= 2n exercises the QR-first reduction.
	rng := testutil.NewRand(12)
	a := testutil.RandomDense(50, 7, rng)
	u, s, v := SVD(a)
	testutil.CheckSVD(t, "qr-path", a, u, s, v, 1e-11)
}

func TestSVDSquare(t *testing.T) {
	rng := testutil.NewRand(13)
	a := testutil.RandomDense(8, 8, rng)
	u, s, v := SVD(a)
	testutil.CheckSVD(t, "square", a, u, s, v, 1e-11)
}

func TestSVDWide(t *testing.T) {
	rng := testutil.NewRand(14)
	a := testutil.RandomDense(5, 12, rng)
	u, s, v := SVD(a)
	if u.Rows() != 5 || u.Cols() != 5 || v.Rows() != 12 || v.Cols() != 5 {
		t.Fatalf("wide shapes: U %dx%d, V %dx%d", u.Rows(), u.Cols(), v.Rows(), v.Cols())
	}
	testutil.CheckSVD(t, "wide", a, u, s, v, 1e-11)
}

func TestSVDKnownValues(t *testing.T) {
	// diag(3, 2, 1) has singular values 3, 2, 1.
	a := mat.NewDiag([]float64{1, 3, 2})
	_, s, _ := SVD(a)
	want := []float64{3, 2, 1}
	if !testutil.CloseSlices(s, want, 1e-13) {
		t.Fatalf("s = %v, want %v", s, want)
	}
}

func TestSVDRank1(t *testing.T) {
	// A = x·yᵀ has exactly one nonzero singular value ‖x‖·‖y‖.
	x := mat.NewFromRows([][]float64{{1}, {2}, {2}}) // norm 3
	y := mat.NewFromRows([][]float64{{3}, {4}})      // norm 5
	a := mat.MulTransB(x, y)
	_, s, _ := SVD(a)
	if math.Abs(s[0]-15) > 1e-12 {
		t.Fatalf("s[0] = %g, want 15", s[0])
	}
	if s[1] > 1e-12 {
		t.Fatalf("s[1] = %g, want ~0", s[1])
	}
}

func TestSVDZeroMatrix(t *testing.T) {
	a := mat.New(6, 3)
	u, s, v := SVD(a)
	for _, sv := range s {
		if sv != 0 {
			t.Fatalf("zero matrix singular values: %v", s)
		}
	}
	recon := mat.MulTransB(mat.MulDiag(u, s), v)
	if recon.MaxAbs() != 0 {
		t.Fatal("zero matrix reconstruction not zero")
	}
}

func TestSVDEmpty(t *testing.T) {
	u, s, v := SVD(mat.New(0, 0))
	if len(s) != 0 || u.Cols() != 0 || v.Cols() != 0 {
		t.Fatal("empty SVD should return empty factors")
	}
}

func TestSVDOrthogonalInput(t *testing.T) {
	rng := testutil.NewRand(15)
	q := testutil.RandomOrthonormal(9, 9, rng)
	_, s, _ := SVD(q)
	for i, sv := range s {
		if math.Abs(sv-1) > 1e-12 {
			t.Fatalf("s[%d] = %g, want 1 for orthogonal input", i, sv)
		}
	}
}

func TestSVDRecoversPlantedSpectrum(t *testing.T) {
	rng := testutil.NewRand(16)
	want := []float64{10, 5, 2, 1, 0.5}
	u := testutil.RandomOrthonormal(40, 5, rng)
	v := testutil.RandomOrthonormal(12, 5, rng)
	a := mat.MulTransB(mat.MulDiag(u, want), v)
	_, s, _ := SVD(a)
	if !testutil.CloseSlices(s[:5], want, 1e-10) {
		t.Fatalf("recovered spectrum %v, want %v", s[:5], want)
	}
	for _, sv := range s[5:] {
		if sv > 1e-10 {
			t.Fatalf("trailing singular value %g, want ~0", sv)
		}
	}
}

func TestSVDAgainstJacobi(t *testing.T) {
	// Golub–Reinsch and one-sided Jacobi are independent algorithms; their
	// singular values must agree to high precision.
	rng := testutil.NewRand(17)
	for _, dims := range [][2]int{{10, 10}, {25, 8}, {7, 13}, {40, 5}} {
		a := testutil.RandomDense(dims[0], dims[1], rng)
		_, s1, _ := SVD(a)
		_, s2, _ := JacobiSVD(a)
		if !testutil.CloseSlices(s1, s2, 1e-10) {
			t.Fatalf("%v: GR %v vs Jacobi %v", dims, s1, s2)
		}
	}
}

func TestSVDSubspacesAgainstJacobi(t *testing.T) {
	// With a well-separated spectrum the leading singular subspaces from the
	// two algorithms must coincide.
	rng := testutil.NewRand(18)
	a, _ := testutil.RandomLowRank(30, 10, 4, 1e-6, rng)
	u1, _, _ := SVD(a)
	u2, _, _ := JacobiSVD(a)
	if err := testutil.SubspaceError(u1.SliceCols(0, 4), u2.SliceCols(0, 4)); err > 1e-6 {
		t.Fatalf("leading subspace mismatch: %g", err)
	}
}

func TestSVDDoesNotMutateInput(t *testing.T) {
	rng := testutil.NewRand(19)
	a := testutil.RandomDense(9, 4, rng)
	before := a.Clone()
	SVD(a)
	if !mat.EqualApprox(a, before, 0) {
		t.Fatal("SVD mutated its input")
	}
}

func TestSVDTruncated(t *testing.T) {
	rng := testutil.NewRand(20)
	a := testutil.RandomDense(20, 8, rng)
	u, s, v := SVDTruncated(a, 3)
	if u.Cols() != 3 || len(s) != 3 || v.Cols() != 3 {
		t.Fatalf("truncated shapes: U cols %d, s %d, V cols %d", u.Cols(), len(s), v.Cols())
	}
	uf, sf, _ := SVD(a)
	if !testutil.CloseSlices(s, sf[:3], 1e-12) {
		t.Fatal("truncated values differ from full SVD")
	}
	if err := testutil.MaxColumnError(uf.SliceCols(0, 3), u); err > 1e-12 {
		t.Fatalf("truncated vectors differ: %g", err)
	}
}

func TestSVDTruncatedBeyondRank(t *testing.T) {
	rng := testutil.NewRand(21)
	a := testutil.RandomDense(6, 4, rng)
	u, s, v := SVDTruncated(a, 99)
	if u.Cols() != 4 || len(s) != 4 || v.Cols() != 4 {
		t.Fatal("over-truncation should clamp to min(m,n)")
	}
}

func TestSVDTruncatedNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative k did not panic")
		}
	}()
	SVDTruncated(mat.Eye(3), -1)
}

func TestSVDEckartYoung(t *testing.T) {
	// The rank-k truncation must be the best rank-k approximation:
	// ‖A − A_k‖_F² = Σ_{i>k} σ_i².
	rng := testutil.NewRand(22)
	a := testutil.RandomDense(15, 10, rng)
	u, s, v := SVD(a)
	k := 4
	ak := mat.MulTransB(mat.MulDiag(u.SliceCols(0, k), s[:k]), v.SliceCols(0, k))
	got := mat.Sub(a, ak).FroNorm()
	want := 0.0
	for _, sv := range s[k:] {
		want += sv * sv
	}
	want = math.Sqrt(want)
	if math.Abs(got-want) > 1e-10 {
		t.Fatalf("Eckart-Young: residual %g, want %g", got, want)
	}
}

func TestSVDIllConditioned(t *testing.T) {
	// Singular values spanning 12 orders of magnitude.
	rng := testutil.NewRand(23)
	want := []float64{1e6, 1, 1e-6}
	u := testutil.RandomOrthonormal(20, 3, rng)
	v := testutil.RandomOrthonormal(3, 3, rng)
	a := mat.MulTransB(mat.MulDiag(u, want), v)
	_, s, _ := SVD(a)
	for i := range want {
		if math.Abs(s[i]-want[i])/want[0] > 1e-12 {
			t.Fatalf("ill-conditioned: s[%d] = %g, want %g", i, s[i], want[i])
		}
	}
}

// Property-based: SVD invariants over random shapes and seeds.
func TestPropertySVDInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(14)
		n := 1 + rng.Intn(14)
		a := testutil.RandomDense(m, n, rng)
		u, s, v := SVD(a)
		// Reconstruction.
		recon := mat.MulTransB(mat.MulDiag(u, s), v)
		if !mat.EqualApprox(recon, a, 1e-9) {
			return false
		}
		// Descending non-negative spectrum.
		for i, sv := range s {
			if sv < -1e-14 || (i > 0 && sv > s[i-1]+1e-12) {
				return false
			}
		}
		// Largest singular value bounds the Frobenius norm from below
		// appropriately: σ₁ ≤ ‖A‖_F ≤ sqrt(t)·σ₁.
		if len(s) > 0 && a.FroNorm() > math.Sqrt(float64(len(s)))*s[0]+1e-9 {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: testutil.NewRand(24)}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: singular values of Aᵀ equal those of A.
func TestPropertySVDTransposeSpectrum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(10)
		n := 1 + rng.Intn(10)
		a := testutil.RandomDense(m, n, rng)
		_, s1, _ := SVD(a)
		_, s2, _ := SVD(a.T())
		return testutil.CloseSlices(s1, s2, 1e-10)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: testutil.NewRand(25)}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling the matrix scales the spectrum.
func TestPropertySVDScaling(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(8)
		n := 2 + rng.Intn(8)
		c := 0.5 + rng.Float64()*4
		a := testutil.RandomDense(m, n, rng)
		_, s1, _ := SVD(a)
		_, s2, _ := SVD(mat.Scale(c, a))
		for i := range s1 {
			if math.Abs(c*s1[i]-s2[i]) > 1e-9*(1+s2[0]) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: testutil.NewRand(26)}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPythag(t *testing.T) {
	if got := pythag(3, 4); math.Abs(got-5) > 1e-15 {
		t.Fatalf("pythag(3,4) = %g", got)
	}
	if got := pythag(0, 0); got != 0 {
		t.Fatalf("pythag(0,0) = %g", got)
	}
	if got := pythag(1e200, 1e200); math.IsInf(got, 0) {
		t.Fatal("pythag overflowed")
	}
	if got := pythag(-3, -4); math.Abs(got-5) > 1e-15 {
		t.Fatalf("pythag(-3,-4) = %g", got)
	}
}

func TestSignOf(t *testing.T) {
	if signOf(3, -2) != -3 || signOf(-3, 2) != 3 || signOf(3, 0) != 3 {
		t.Fatal("signOf wrong")
	}
}

func TestSVDHilbertMatrix(t *testing.T) {
	// The 10x10 Hilbert matrix is the classic ill-conditioned stress test
	// (condition number ~1e13). The factorization must still reconstruct
	// and stay orthonormal even though the small singular values carry
	// little relative accuracy.
	n := 10
	h := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			h.Set(i, j, 1/float64(i+j+1))
		}
	}
	u, s, v := SVD(h)
	testutil.CheckSVD(t, "hilbert", h, u, s, v, 1e-10)
	// Known leading singular value of the 10x10 Hilbert matrix ≈ 1.7519.
	if math.Abs(s[0]-1.7519) > 1e-3 {
		t.Fatalf("sigma_1 = %g, want ≈ 1.7519", s[0])
	}
	// The spectrum must span many orders of magnitude.
	if s[n-1] > 1e-11*s[0] {
		t.Fatalf("smallest singular value suspiciously large: %g", s[n-1])
	}
}

func TestSVDRepeatedSingularValues(t *testing.T) {
	// A multiple of the identity has one singular value with full
	// multiplicity; U·Vᵀ must still reconstruct despite the degenerate
	// subspace being arbitrary.
	a := mat.Scale(3, mat.Eye(6))
	u, s, v := SVD(a)
	for i, sv := range s {
		if math.Abs(sv-3) > 1e-12 {
			t.Fatalf("s[%d] = %g, want 3", i, sv)
		}
	}
	testutil.CheckSVD(t, "repeated", a, u, s, v, 1e-12)
}

func TestSVDGradedMatrix(t *testing.T) {
	// Strongly graded rows (powers of 10) probe the scaling logic in the
	// bidiagonalization.
	rng := testutil.NewRand(27)
	a := testutil.RandomDense(12, 6, rng)
	for i := 0; i < 12; i++ {
		scale := math.Pow(10, float64(i-6))
		for j := 0; j < 6; j++ {
			a.Set(i, j, a.At(i, j)*scale)
		}
	}
	u, s, v := SVD(a)
	testutil.CheckSVD(t, "graded", a, u, s, v, 1e-10)
}

func TestSVDZeroColumnInside(t *testing.T) {
	// An interior zero column forces a zero on the bidiagonal: the
	// cancellation branch of the GR iteration.
	rng := testutil.NewRand(28)
	a := testutil.RandomDense(10, 5, rng)
	for i := 0; i < 10; i++ {
		a.Set(i, 2, 0)
	}
	u, s, v := SVD(a)
	testutil.CheckSVD(t, "zero-column", a, u, s, v, 1e-11)
	if s[4] > 1e-12 {
		t.Fatalf("expected a (near-)zero singular value, got %v", s)
	}
}

func TestSVDSingleColumnAndRow(t *testing.T) {
	col := mat.NewFromRows([][]float64{{3}, {4}})
	_, s, _ := SVD(col)
	if math.Abs(s[0]-5) > 1e-14 {
		t.Fatalf("column matrix: s = %v", s)
	}
	row := mat.NewFromRows([][]float64{{3, 4}})
	_, s, _ = SVD(row)
	if math.Abs(s[0]-5) > 1e-14 {
		t.Fatalf("row matrix: s = %v", s)
	}
}

func TestGolubReinschConvergesOnSnapshotGram(t *testing.T) {
	// Regression: Gram matrices of PDE snapshot ensembles have squared
	// singular values spanning the full double range (σ² from ~1e3 down to
	// ~1e-15 here). With the classical 30-iteration cap the GR iteration
	// gave up on exactly this class and silently fell back to the ~60x
	// slower Jacobi path; the cap is now 60 and the direct path must
	// succeed.
	rng := testutil.NewRand(29)
	n := 96
	spectrum := make([]float64, n)
	for i := range spectrum {
		spectrum[i] = 1e3 * math.Pow(0.65, float64(i)) // σ² down to ~1e-15
	}
	v := testutil.RandomOrthonormal(n, n, rng)
	gram := mat.MulTransB(mat.MulDiag(v, spectrum), v)

	uw := gram.Clone()
	s := make([]float64, n)
	vv := mat.New(n, n)
	if err := golubReinsch(nil, uw, s, vv); err != nil {
		t.Fatalf("Golub-Reinsch fell back on a snapshot-Gram spectrum: %v", err)
	}
	sortSVDDescending(nil, uw, s, vv)
	if math.Abs(s[0]-spectrum[0]) > 1e-8*spectrum[0] {
		t.Fatalf("sigma_1 = %g, want %g", s[0], spectrum[0])
	}
}

func TestSVDTruncatedChecksKFirst(t *testing.T) {
	// A nil matrix would fail inside the SVD; the rank check must come
	// first, so the panic is the negative-k one.
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "negative k") {
			t.Fatalf("want the negative-k panic before any work, got %v", msg)
		}
	}()
	SVDTruncated(nil, -1)
}

// sameBits reports whether x and y hold bit-identical values.
func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// TestSVDLeftMatchesSVDWith checks that skipping V leaves U and s
// bit-identical to the full decomposition on every path SVDWith takes:
// square and between-square Golub–Reinsch, the tall QR reduction, the wide
// transpose, equilibrated extreme scales, rank-deficient and zero-column
// R factors, and the Jacobi fallback.
func TestSVDLeftMatchesSVDWith(t *testing.T) {
	rng := testutil.NewRand(41)
	rFactor := func(a *mat.Dense) *mat.Dense {
		_, r := QR(a)
		return r
	}
	zeroCol := testutil.RandomDense(64, 16, rng)
	for i := 0; i < 64; i++ {
		zeroCol.Set(i, 5, 0)
	}
	rankDef, _ := testutil.RandomLowRank(40, 32, 6, 0, rng)
	cases := map[string]*mat.Dense{
		"random square":       testutil.RandomDense(32, 32, rng),
		"random between":      testutil.RandomDense(45, 32, rng),
		"random tall":         testutil.RandomDense(300, 16, rng),
		"random wide":         testutil.RandomDense(12, 32, rng),
		"random R":            rFactor(testutil.RandomDense(4096, 32, rng)),
		"rank-deficient R":    rFactor(rankDef),
		"zero-column R":       rFactor(zeroCol),
		"zero":                mat.New(16, 16),
		"single column":       testutil.RandomDense(9, 1, rng),
		"rank-deficient wide": rankDef.T(),
	}
	for i := 0; i < 6; i++ {
		cases[fmt.Sprintf("hostile %d", i)] = testutil.HostileBatch(64, 16, i, rng)
		cases[fmt.Sprintf("hostile R %d", i)] = rFactor(testutil.HostileBatch(256, 32, i, rng))
	}
	check := func(name string, a *mat.Dense) {
		var ws mat.Workspace
		u, s, _ := SVDWith(&ws, a)
		ul, sl := SVDLeftWith(&ws, a)
		if !sameBits(u.RawData(), ul.RawData()) || u.Rows() != ul.Rows() || u.Cols() != ul.Cols() {
			t.Errorf("%s: U differs between SVDWith and SVDLeftWith", name)
		}
		if !sameBits(s, sl) {
			t.Errorf("%s: singular values differ: %v vs %v", name, s, sl)
		}
	}
	for name, a := range cases {
		check(name, a)
	}

	// Forced Jacobi fallback: with one sweep allowed the Golub–Reinsch
	// iteration gives up, and both paths must return Jacobi's U and s.
	defer func(n int) { maxSVDIterations = n }(maxSVDIterations)
	maxSVDIterations = 1
	a := testutil.RandomDense(24, 16, rng)
	uj, sj, _ := JacobiSVD(a)
	ul, sl := SVDLeftWith(nil, a)
	if !sameBits(uj.RawData(), ul.RawData()) || !sameBits(sj, sl) {
		t.Fatal("SVDLeftWith did not take the Jacobi fallback")
	}
	check("jacobi fallback", a)
}

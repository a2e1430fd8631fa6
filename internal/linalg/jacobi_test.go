package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"goparsvd/internal/mat"
	"goparsvd/internal/testutil"
)

func TestJacobiSVDTall(t *testing.T) {
	rng := testutil.NewRand(31)
	a := testutil.RandomDense(18, 5, rng)
	u, s, v := JacobiSVD(a)
	testutil.CheckSVD(t, "jacobi-tall", a, u, s, v, 1e-11)
}

func TestJacobiSVDSquare(t *testing.T) {
	rng := testutil.NewRand(32)
	a := testutil.RandomDense(7, 7, rng)
	u, s, v := JacobiSVD(a)
	testutil.CheckSVD(t, "jacobi-square", a, u, s, v, 1e-11)
}

func TestJacobiSVDWide(t *testing.T) {
	rng := testutil.NewRand(33)
	a := testutil.RandomDense(4, 9, rng)
	u, s, v := JacobiSVD(a)
	testutil.CheckSVD(t, "jacobi-wide", a, u, s, v, 1e-11)
}

func TestJacobiSVDKnownValues(t *testing.T) {
	a := diag([]float64{2, 5, 3})
	_, s, _ := JacobiSVD(a)
	if !testutil.CloseSlices(s, []float64{5, 3, 2}, 1e-13) {
		t.Fatalf("s = %v", s)
	}
}

func TestJacobiSVDRankDeficient(t *testing.T) {
	// Rank-2 matrix in R^{5x4}.
	rng := testutil.NewRand(34)
	a, _ := testutil.RandomLowRank(5, 4, 2, 0, rng)
	u, s, v := JacobiSVD(a)
	if s[2] > 1e-12 || s[3] > 1e-12 {
		t.Fatalf("trailing singular values should vanish: %v", s)
	}
	recon := mat.MulTransB(mat.MulDiag(u, s), v)
	if !mat.EqualApprox(recon, a, 1e-11) {
		t.Fatal("rank-deficient reconstruction failed")
	}
}

func TestJacobiSVDZero(t *testing.T) {
	a := mat.New(4, 3)
	_, s, _ := JacobiSVD(a)
	for _, sv := range s {
		if sv != 0 {
			t.Fatalf("zero matrix: s = %v", s)
		}
	}
}

func TestJacobiSVDEmpty(t *testing.T) {
	u, s, v := JacobiSVD(mat.New(0, 0))
	if len(s) != 0 || !u.IsEmpty() && u.Cols() != 0 || !v.IsEmpty() && v.Cols() != 0 {
		t.Fatal("empty JacobiSVD should return empty factors")
	}
}

// Property: Jacobi SVD invariants across random shapes.
func TestPropertyJacobiSVDInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(10)
		n := 1 + rng.Intn(10)
		a := testutil.RandomDense(m, n, rng)
		u, s, v := JacobiSVD(a)
		recon := mat.MulTransB(mat.MulDiag(u, s), v)
		if !mat.EqualApprox(recon, a, 1e-9) {
			return false
		}
		for i := 1; i < len(s); i++ {
			if s[i] > s[i-1]+1e-12 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: testutil.NewRand(35)}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEigSymDiagonal(t *testing.T) {
	a := diag([]float64{1, 4, 2})
	eigs, v := EigSym(a)
	if !testutil.CloseSlices(eigs, []float64{4, 2, 1}, 1e-13) {
		t.Fatalf("eigs = %v", eigs)
	}
	testutil.CheckOrthonormalColumns(t, "V", v, 1e-12)
}

func TestEigSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := mat.NewFromRows([][]float64{{2, 1}, {1, 2}})
	eigs, v := EigSym(a)
	if !testutil.CloseSlices(eigs, []float64{3, 1}, 1e-13) {
		t.Fatalf("eigs = %v", eigs)
	}
	// A·v = λ·v for each eigenpair.
	for j := 0; j < 2; j++ {
		av := mat.Mul(a, v).Col(j)
		for i := range av {
			if math.Abs(av[i]-eigs[j]*v.At(i, j)) > 1e-12 {
				t.Fatalf("eigenpair %d violated", j)
			}
		}
	}
}

func TestEigSymReconstruction(t *testing.T) {
	rng := testutil.NewRand(36)
	want := []float64{9, 4, 1, 0.25}
	a := testutil.RandomSPD(4, want, rng)
	eigs, v := EigSym(a)
	if !testutil.CloseSlices(eigs, want, 1e-10) {
		t.Fatalf("eigs = %v, want %v", eigs, want)
	}
	recon := mat.MulTransB(mat.MulDiag(v, eigs), v)
	if !mat.EqualApprox(recon, a, 1e-10) {
		t.Fatal("V·Λ·Vᵀ != A")
	}
}

func TestEigSymNegativeEigenvalues(t *testing.T) {
	rng := testutil.NewRand(37)
	want := []float64{5, 1, -2, -7}
	v := testutil.RandomOrthonormal(4, 4, rng)
	a := mat.MulTransB(mat.MulDiag(v, want), v)
	eigs, _ := EigSym(a)
	sorted := []float64{5, 1, -2, -7}
	if !testutil.CloseSlices(eigs, sorted, 1e-10) {
		t.Fatalf("eigs = %v, want %v", eigs, sorted)
	}
}

func TestEigSymNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EigSym of non-square did not panic")
		}
	}()
	EigSym(mat.New(2, 3))
}

func TestEigSymEmpty(t *testing.T) {
	eigs, _ := EigSym(mat.New(0, 0))
	if len(eigs) != 0 {
		t.Fatal("empty EigSym should return no eigenvalues")
	}
}

// Property: eigenvalues of AᵀA are squared singular values of A — the
// identity the method of snapshots relies on.
func TestPropertyEigGramMatchesSVD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 3 + rng.Intn(10)
		n := 2 + rng.Intn(5)
		a := testutil.RandomDense(m, n, rng)
		gram := mat.MulTransA(a, a)
		eigs, _ := EigSym(gram)
		_, s, _ := SVD(a)
		for i := range s {
			ev := eigs[i]
			if ev < 0 {
				ev = 0
			}
			if math.Abs(math.Sqrt(ev)-s[i]) > 1e-8*(1+s[0]) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: testutil.NewRand(38)}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

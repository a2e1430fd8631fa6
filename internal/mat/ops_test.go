package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomDense(r, c int, rng *rand.Rand) *Dense {
	m := New(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

// add returns a + b; negation is exact, so this is the sum bit for bit.
func add(a, b *Dense) *Dense { return Sub(a, Scale(-1, b)) }

func TestAddSub(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{5, 6}, {7, 8}})
	if got := Sub(b, a); !EqualApprox(got, NewFromRows([][]float64{{4, 4}, {4, 4}}), 0) {
		t.Fatalf("Sub wrong: %v", got)
	}
}

func TestScale(t *testing.T) {
	a := NewFromRows([][]float64{{1, -2}})
	if got := Scale(3, a); !EqualApprox(got, NewFromRows([][]float64{{3, -6}}), 0) {
		t.Fatalf("Scale wrong: %v", got)
	}
}

func TestMulSmall(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{5, 6}, {7, 8}})
	want := NewFromRows([][]float64{{19, 22}, {43, 50}})
	if got := Mul(a, b); !EqualApprox(got, want, 1e-14) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomDense(7, 5, rng)
	if !EqualApprox(Mul(a, Eye(5)), a, 1e-14) {
		t.Fatal("A·I != A")
	}
	if !EqualApprox(Mul(Eye(7), a), a, 1e-14) {
		t.Fatal("I·A != A")
	}
}

func TestMulDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul dim mismatch did not panic")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestMulAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomDense(4, 6, rng)
	b := randomDense(6, 3, rng)
	c := randomDense(3, 5, rng)
	left := Mul(Mul(a, b), c)
	right := Mul(a, Mul(b, c))
	if !EqualApprox(left, right, 1e-12) {
		t.Fatal("(AB)C != A(BC)")
	}
}

func TestMulParallelPathMatchesSerial(t *testing.T) {
	// Large enough to trigger the blocked kernel's pool fan-out; compare
	// against the naive reference kernel directly.
	rng := rand.New(rand.NewSource(3))
	a := randomDense(150, 120, rng)
	b := randomDense(120, 140, rng)
	got := Mul(a, b)
	want := refMul(a, b)
	if !EqualApprox(got, want, 1e-12) {
		t.Fatal("blocked Mul disagrees with naive reference kernel")
	}
}

func TestMulTransA(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomDense(8, 5, rng)
	b := randomDense(8, 6, rng)
	if !EqualApprox(MulTransA(a, b), Mul(a.T(), b), 1e-12) {
		t.Fatal("MulTransA != Aᵀ·B")
	}
}

func TestMulTransALargeParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomDense(130, 110, rng)
	b := randomDense(130, 90, rng)
	if !EqualApprox(MulTransA(a, b), Mul(a.T(), b), 1e-11) {
		t.Fatal("parallel MulTransA != Aᵀ·B")
	}
}

func TestMulTransB(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randomDense(6, 7, rng)
	b := randomDense(5, 7, rng)
	if !EqualApprox(MulTransB(a, b), Mul(a, b.T()), 1e-12) {
		t.Fatal("MulTransB != A·Bᵀ")
	}
}

func TestMulDiagDiagMul(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomDense(4, 3, rng)
	d := []float64{2, -1, 0.5}
	dm := New(3, 3)
	for i, v := range d {
		dm.Set(i, i, v)
	}
	if !EqualApprox(MulDiag(a, d), Mul(a, dm), 1e-14) {
		t.Fatal("MulDiag != A·diag(d)")
	}
}

func TestHStack(t *testing.T) {
	a := NewFromRows([][]float64{{1}, {2}})
	b := NewFromRows([][]float64{{3, 4}, {5, 6}})
	got := HStack(a, b)
	want := NewFromRows([][]float64{{1, 3, 4}, {2, 5, 6}})
	if !EqualApprox(got, want, 0) {
		t.Fatalf("HStack = %v, want %v", got, want)
	}
}

func TestHStackSkipsNil(t *testing.T) {
	a := NewFromRows([][]float64{{1}, {2}})
	got := HStack(nil, a, nil)
	if !EqualApprox(got, a, 0) {
		t.Fatalf("HStack with nils = %v", got)
	}
}

func TestHStackMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("HStack row mismatch did not panic")
		}
	}()
	HStack(New(2, 1), New(3, 1))
}

func TestDotAxpyNrm2(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := Dot(x, y); got != 32 {
		t.Fatalf("Dot = %g, want 32", got)
	}
	if got := Nrm2([]float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Nrm2 = %g, want 5", got)
	}
	Axpy(2, x, y)
	if y[0] != 6 || y[2] != 12 {
		t.Fatalf("Axpy wrong: %v", y)
	}
}

func TestNrm2OverflowSafe(t *testing.T) {
	got := Nrm2([]float64{1e200, 1e200})
	want := 1e200 * math.Sqrt(2)
	if math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("Nrm2 overflowed: %g", got)
	}
}

// Property: matrix multiplication distributes over addition.
func TestPropertyMulDistributes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 2+r.Intn(6), 2+r.Intn(6), 2+r.Intn(6)
		a := randomDense(m, k, r)
		b := randomDense(k, n, r)
		c := randomDense(k, n, r)
		left := Mul(a, add(b, c))
		right := add(Mul(a, b), Mul(a, c))
		return EqualApprox(left, right, 1e-10)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestPropertyTransposeOfProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 2+r.Intn(6), 2+r.Intn(6), 2+r.Intn(6)
		a := randomDense(m, k, r)
		b := randomDense(k, n, r)
		return EqualApprox(Mul(a, b).T(), Mul(b.T(), a.T()), 1e-10)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Frobenius norm is invariant under transposition and submultiplicative.
func TestPropertyNormInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 2+r.Intn(6), 2+r.Intn(6)
		a := randomDense(m, n, r)
		b := randomDense(n, m, r)
		if math.Abs(a.FroNorm()-a.T().FroNorm()) > 1e-12 {
			return false
		}
		return Mul(a, b).FroNorm() <= a.FroNorm()*b.FroNorm()+1e-10
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEqualApproxShapes(t *testing.T) {
	if EqualApprox(New(2, 2), New(2, 3), 1) {
		t.Fatal("EqualApprox must reject different shapes")
	}
}

func TestRemainingDimensionMismatchPanics(t *testing.T) {
	a23 := New(2, 3)
	a32 := New(3, 2)
	cases := map[string]func(){
		"Sub":       func() { Sub(a23, a32) },
		"MulTransA": func() { MulTransA(a23, a32) },
		"MulTransB": func() { MulTransB(a23, New(2, 4)) },
		"MulDiag":   func() { MulDiag(a23, []float64{1, 2}) },
		"Dot":       func() { Dot([]float64{1}, []float64{1, 2}) },
		"Axpy":      func() { Axpy(1, []float64{1}, []float64{1, 2}) },
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		})
	}
}

func TestAccessorPanics(t *testing.T) {
	m := New(2, 3)
	cases := map[string]func(){
		"RowView OOB":   func() { m.RowView(2) },
		"Col OOB":       func() { m.Col(3) },
		"SetRow length": func() { m.SetRow(0, []float64{1}) },
		"SetCol length": func() { m.SetCol(0, []float64{1}) },
		"SetCol OOB":    func() { m.SetCol(5, []float64{1, 2}) },
		"ColNorm OOB":   func() { m.ColNorm(-1) },
		"ColMatrix OOB": func() { m.ColMatrix(9) },
		"Row OOB":       func() { m.Row(-1) },
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		})
	}
}

func TestEmptyMatrixOperations(t *testing.T) {
	e := New(0, 0)
	if !e.IsEmpty() {
		t.Fatal("0x0 not empty")
	}
	if e.FroNorm() != 0 || e.MaxAbs() != 0 {
		t.Fatal("empty norms nonzero")
	}
	et := e.T()
	if !et.IsEmpty() {
		t.Fatal("transpose of empty not empty")
	}
	if got := Mul(New(0, 3), New(3, 0)); got.Rows() != 0 || got.Cols() != 0 {
		t.Fatalf("empty product shape %dx%d", got.Rows(), got.Cols())
	}
	// 3x0 times 0x2 gives a 3x2 zero matrix.
	z := Mul(New(3, 0), New(0, 2))
	if z.Rows() != 3 || z.Cols() != 2 || z.MaxAbs() != 0 {
		t.Fatalf("3x0 * 0x2 = %v", z)
	}
}

func TestDiagOnWideAndTall(t *testing.T) {
	wide := NewFromRows([][]float64{{1, 2, 3}})
	if d := wide.Diag(); len(d) != 1 || d[0] != 1 {
		t.Fatalf("wide diag %v", d)
	}
	tall := NewFromRows([][]float64{{1}, {2}})
	if d := tall.Diag(); len(d) != 1 || d[0] != 1 {
		t.Fatalf("tall diag %v", d)
	}
}

// TestFirstNonFinite places NaN, +Inf and −Inf at every index of slices
// of every tail length around the 4-wide pass and its 256-value blocks,
// and checks the index reported is the first offender's, while every
// finite value — huge, subnormal, signed zero — passes.
func TestFirstNonFinite(t *testing.T) {
	finite := []float64{1, -2.5, math.MaxFloat64, -math.MaxFloat64, 0x1p-1074, math.Copysign(0, -1), 0, 1e-300}
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 255, 256, 257, 4096}
	for _, n := range lengths {
		x := make([]float64, n)
		for i := range x {
			x[i] = finite[i%len(finite)]
		}
		if got := FirstNonFinite(x); got != -1 {
			t.Fatalf("len %d all finite: got %d, want -1", n, got)
		}
		for bad := range x {
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				x[bad] = v
				if got := FirstNonFinite(x); got != bad {
					t.Fatalf("len %d, %g at %d: got %d", n, v, bad, got)
				}
				if bad+1 < n { // a second offender later must not win
					x[n-1] = math.NaN()
					if got := FirstNonFinite(x); got != bad {
						t.Fatalf("len %d, %g at %d and NaN at %d: got %d", n, v, bad, n-1, got)
					}
					x[n-1] = finite[(n-1)%len(finite)]
				}
				x[bad] = finite[bad%len(finite)]
			}
		}
	}
}

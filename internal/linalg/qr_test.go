package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"goparsvd/internal/mat"
	"goparsvd/internal/testutil"
)

func TestQRTall(t *testing.T) {
	rng := testutil.NewRand(1)
	a := testutil.RandomDense(20, 5, rng)
	q, r := QR(a)
	if q.Rows() != 20 || q.Cols() != 5 || r.Rows() != 5 || r.Cols() != 5 {
		t.Fatalf("thin QR shapes: Q %dx%d, R %dx%d", q.Rows(), q.Cols(), r.Rows(), r.Cols())
	}
	testutil.CheckOrthonormalColumns(t, "Q", q, 1e-12)
	testutil.CheckUpperTriangular(t, "R", r, 1e-13)
	if !mat.EqualApprox(mat.Mul(q, r), a, 1e-12) {
		t.Fatal("QR reconstruction failed")
	}
}

func TestQRSquare(t *testing.T) {
	rng := testutil.NewRand(2)
	a := testutil.RandomDense(6, 6, rng)
	q, r := QR(a)
	testutil.CheckOrthonormalColumns(t, "Q", q, 1e-12)
	testutil.CheckUpperTriangular(t, "R", r, 1e-13)
	if !mat.EqualApprox(mat.Mul(q, r), a, 1e-12) {
		t.Fatal("QR reconstruction failed")
	}
}

func TestQRWide(t *testing.T) {
	rng := testutil.NewRand(3)
	a := testutil.RandomDense(4, 9, rng)
	q, r := QR(a)
	if q.Rows() != 4 || q.Cols() != 4 || r.Rows() != 4 || r.Cols() != 9 {
		t.Fatalf("wide QR shapes: Q %dx%d, R %dx%d", q.Rows(), q.Cols(), r.Rows(), r.Cols())
	}
	testutil.CheckOrthonormalColumns(t, "Q", q, 1e-12)
	testutil.CheckUpperTriangular(t, "R", r, 1e-13)
	if !mat.EqualApprox(mat.Mul(q, r), a, 1e-12) {
		t.Fatal("QR reconstruction failed")
	}
}

func TestQRIdentity(t *testing.T) {
	q, r := QR(mat.Eye(4))
	if !mat.EqualApprox(mat.Mul(q, r), mat.Eye(4), 1e-14) {
		t.Fatal("QR of identity failed")
	}
}

func TestQRZeroMatrix(t *testing.T) {
	a := mat.New(5, 3)
	q, r := QR(a)
	if !mat.EqualApprox(mat.Mul(q, r), a, 1e-14) {
		t.Fatal("QR of zero matrix must reconstruct zero")
	}
	if r.MaxAbs() != 0 {
		t.Fatal("R of zero matrix must be zero")
	}
}

func TestQRRankDeficient(t *testing.T) {
	// Two identical columns: rank 1.
	a := mat.NewFromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	q, r := QR(a)
	if !mat.EqualApprox(mat.Mul(q, r), a, 1e-13) {
		t.Fatal("QR of rank-deficient matrix must still reconstruct")
	}
	if math.Abs(r.At(1, 1)) > 1e-13 {
		t.Fatalf("R[1,1] should be ~0 for rank-1 input, got %g", r.At(1, 1))
	}
}

func TestQRSingleColumn(t *testing.T) {
	a := mat.NewFromRows([][]float64{{3}, {4}})
	q, r := QR(a)
	if math.Abs(math.Abs(r.At(0, 0))-5) > 1e-14 {
		t.Fatalf("|R[0,0]| = %g, want 5", math.Abs(r.At(0, 0)))
	}
	testutil.CheckOrthonormalColumns(t, "Q", q, 1e-14)
}

func TestQRDeterministic(t *testing.T) {
	rng := testutil.NewRand(4)
	a := testutil.RandomDense(10, 4, rng)
	q1, r1 := QR(a)
	q2, r2 := QR(a)
	if !mat.EqualApprox(q1, q2, 0) || !mat.EqualApprox(r1, r2, 0) {
		t.Fatal("QR must be deterministic")
	}
}

func TestQRDoesNotMutateInput(t *testing.T) {
	rng := testutil.NewRand(5)
	a := testutil.RandomDense(8, 3, rng)
	before := a.Clone()
	QR(a)
	if !mat.EqualApprox(a, before, 0) {
		t.Fatal("QR mutated its input")
	}
}

// Property-based: QR invariants hold over random shapes.
func TestPropertyQRInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(12)
		n := 1 + rng.Intn(12)
		a := testutil.RandomDense(m, n, rng)
		q, r := QR(a)
		// Reconstruction.
		if !mat.EqualApprox(mat.Mul(q, r), a, 1e-11) {
			return false
		}
		// Orthonormality: QᵀQ = I.
		g := mat.MulTransA(q, q)
		return mat.EqualApprox(g, mat.Eye(q.Cols()), 1e-11)
	}
	cfg := &quick.Config{MaxCount: 40, Rand: testutil.NewRand(6)}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSolveUpperTriangular(t *testing.T) {
	r := mat.NewFromRows([][]float64{{2, 1}, {0, 3}})
	x := SolveUpperTriangular(r, []float64{5, 6})
	// 3x₂ = 6 → x₂ = 2; 2x₁ + 2 = 5 → x₁ = 1.5.
	if math.Abs(x[0]-1.5) > 1e-14 || math.Abs(x[1]-2) > 1e-14 {
		t.Fatalf("solve = %v", x)
	}
}

func TestSolveUpperTriangularSingularPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("singular solve did not panic")
		}
	}()
	SolveUpperTriangular(mat.NewFromRows([][]float64{{1, 2}, {0, 0}}), []float64{1, 1})
}

func TestLeastSquaresExact(t *testing.T) {
	// Overdetermined consistent system: the residual must be ~0.
	a := mat.NewFromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	xTrue := []float64{2, -3}
	b := mat.MulVec(a, xTrue)
	x := LeastSquares(a, b)
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]+3) > 1e-12 {
		t.Fatalf("LeastSquares = %v, want %v", x, xTrue)
	}
}

func TestLeastSquaresMinimizesResidual(t *testing.T) {
	rng := testutil.NewRand(7)
	a := testutil.RandomDense(30, 4, rng)
	b := make([]float64, 30)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := LeastSquares(a, b)
	res := residualNorm(a, x, b)
	// Perturbing the solution in any coordinate direction must not shrink
	// the residual (first-order optimality check).
	for j := 0; j < 4; j++ {
		for _, eps := range []float64{1e-4, -1e-4} {
			xp := append([]float64(nil), x...)
			xp[j] += eps
			if residualNorm(a, xp, b) < res-1e-12 {
				t.Fatalf("residual decreased when perturbing x[%d]", j)
			}
		}
	}
}

func residualNorm(a *mat.Dense, x, b []float64) float64 {
	ax := mat.MulVec(a, x)
	s := 0.0
	for i := range ax {
		d := ax[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// refQR is the row-wise, level-2 Householder QR the blocked compact-WY
// kernel replaced, kept as the reference for the sign rule and for R: it
// reduces one column at a time on the row-major matrix and accumulates Q
// backwards from the identity.
func refQR(a *mat.Dense) (q, r *mat.Dense) {
	m, n := a.Dims()
	t := min(m, n)
	w := a.Clone()
	tau := make([]float64, t)
	s := make([]float64, n)
	for k := 0; k < t; k++ {
		tau[k] = refHouseColumn(w, k, s)
	}
	r = mat.New(t, n)
	for i := 0; i < t; i++ {
		copy(r.RawData()[i*n+i:(i+1)*n], w.RawData()[i*n+i:(i+1)*n])
	}
	q = mat.New(m, t)
	for j := 0; j < t; j++ {
		q.Set(j, j, 1)
	}
	for k := t - 1; k >= 0; k-- {
		refApplyHouseLeft(q, w, k, tau[k], s)
	}
	return q, r
}

// refHouseColumn forms the Householder reflector annihilating column k of w
// below the diagonal, stores the essential part of the vector in place
// (w[k+1:,k]), writes the resulting R entry at (k,k) and applies the
// reflector to the trailing columns. It returns tau such that
// H = I - tau·v·vᵀ with v[k] = 1. s is caller-provided scratch of length
// ≥ n; the trailing update runs row-wise (two passes accumulating
// s = vᵀW, then W -= tau·v·sᵀ) so memory is walked contiguously.
func refHouseColumn(w *mat.Dense, k int, s []float64) float64 {
	m, n := w.Dims()
	data := w.RawData()
	// Norm of the column below and including the diagonal.
	norm := 0.0
	for idx := k*n + k; idx < m*n; idx += n {
		v := data[idx]
		norm += v * v
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return 0
	}
	alpha := data[k*n+k]
	// Choose the sign that avoids cancellation: beta = -sign(alpha)·‖x‖.
	beta := -norm
	if alpha < 0 {
		beta = norm
	}
	// v = x - beta·e_k, normalized so v[k] = 1.
	v0 := alpha - beta
	for idx := (k+1)*n + k; idx < m*n; idx += n {
		data[idx] /= v0
	}
	tau := (beta - alpha) / beta
	data[k*n+k] = beta

	// Apply H to the trailing columns: s = vᵀ·W[:, k+1:], then
	// W[:, k+1:] -= tau·v·sᵀ, row by row.
	cols := n - (k + 1)
	if cols == 0 {
		return tau
	}
	s = s[:cols]
	copy(s, data[k*n+k+1:(k+1)*n]) // v[k] = 1
	for i := k + 1; i < m; i++ {
		vi := data[i*n+k]
		if vi == 0 {
			continue
		}
		row := data[i*n+k+1 : (i+1)*n]
		for j, wv := range row {
			s[j] += vi * wv
		}
	}
	krow := data[k*n+k+1 : (k+1)*n]
	for j := range s {
		s[j] *= tau
		krow[j] -= s[j]
	}
	for i := k + 1; i < m; i++ {
		vi := data[i*n+k]
		if vi == 0 {
			continue
		}
		row := data[i*n+k+1 : (i+1)*n]
		for j, sv := range s {
			row[j] -= sv * vi
		}
	}
	return tau
}

// refApplyHouseLeft applies the k-th stored reflector H = I - tau·v·vᵀ to every
// column of q in place, where v is stored in column k of w below the
// diagonal with implicit v[k] = 1. s is caller-provided scratch of length
// ≥ q.Cols(); the update runs row-wise like houseColumn's.
func refApplyHouseLeft(q, w *mat.Dense, k int, tau float64, s []float64) {
	if tau == 0 {
		return
	}
	m, p := q.Dims()
	qd, wd := q.RawData(), w.RawData()
	wcols := w.Cols()
	s = s[:p]
	copy(s, qd[k*p:(k+1)*p])
	for i := k + 1; i < m; i++ {
		vi := wd[i*wcols+k]
		if vi == 0 {
			continue
		}
		row := qd[i*p : (i+1)*p]
		for j, qv := range row {
			s[j] += vi * qv
		}
	}
	krow := qd[k*p : (k+1)*p]
	for j := range s {
		s[j] *= tau
		krow[j] -= s[j]
	}
	for i := k + 1; i < m; i++ {
		vi := wd[i*wcols+k]
		if vi == 0 {
			continue
		}
		row := qd[i*p : (i+1)*p]
		for j, sv := range s {
			row[j] -= sv * vi
		}
	}
}

// qrInput builds an m×n test matrix of the given kind: "random" Gaussian,
// "zero" with every third column zero, or "duplicate" with every odd
// column a copy of the column before it.
func qrInput(m, n int, kind string, rng *rand.Rand) *mat.Dense {
	a := testutil.RandomDense(m, n, rng)
	for i := 0; i < m; i++ {
		row := a.RawData()[i*n : (i+1)*n]
		for j := range row {
			switch {
			case kind == "zero" && j%3 == 1:
				row[j] = 0
			case kind == "duplicate" && j%2 == 1:
				row[j] = row[j-1]
			}
		}
	}
	return a
}

// TestQRProperties is the property suite of the blocked compact-WY QR over
// the shapes around its panel width and the streaming update's (m = 4096,
// n up to 40), one wide shape, and inputs with zero and duplicated
// columns.
func TestQRProperties(t *testing.T) {
	type shape struct{ m, n int }
	var shapes []shape
	for _, n := range []int{1, 2, 7, 8, 9, 16, 24, 32, 40} {
		for _, m := range []int{n, n + 1, 2 * n, 4096} {
			shapes = append(shapes, shape{m, n})
		}
	}
	shapes = append(shapes, shape{13, 30})
	rng := testutil.NewRand(11)
	for _, sh := range shapes {
		for _, kind := range []string{"random", "zero", "duplicate"} {
			name := fmt.Sprintf("%dx%d/%s", sh.m, sh.n, kind)
			a := qrInput(sh.m, sh.n, kind, rng)
			t.Run(name, func(t *testing.T) { checkQRProperties(t, a, kind, rng) })
		}
	}
}

func checkQRProperties(t *testing.T, a *mat.Dense, kind string, rng *rand.Rand) {
	m, n := a.Dims()
	tt := min(m, n)
	amax := a.MaxAbs()
	var ws mat.Workspace
	q, r := QRWith(&ws, a)
	if q.Rows() != m || q.Cols() != tt || r.Rows() != tt || r.Cols() != n {
		t.Fatalf("shapes: Q %dx%d, R %dx%d", q.Rows(), q.Cols(), r.Rows(), r.Cols())
	}
	for i := 0; i < tt; i++ {
		for j := 0; j < i; j++ {
			if r.At(i, j) != 0 {
				t.Fatalf("R[%d,%d] = %g below the diagonal", i, j, r.At(i, j))
			}
		}
	}
	if loss := testutil.OrthonormalityLoss(q); !(loss <= 1e-13) {
		t.Fatalf("‖QᵀQ−I‖_max = %g", loss)
	}
	if d := maxAbsDiff(mat.Mul(q, r), a); !(d <= 1e-13*amax) {
		t.Fatalf("‖A−QR‖_max = %g, ‖A‖_max = %g", d, amax)
	}

	// The sign rule, R_kk = −sign(x_0)·‖x‖, against the reference kernel.
	// Past a duplicated column both kernels build their reflectors from
	// rounding noise, so a duplicated input is compared up to its first
	// duplicate only; elsewhere R itself must agree.
	_, rRef := refQR(a)
	kmax := tt
	if kind == "duplicate" {
		kmax = min(tt, 1)
	}
	for k := 0; k < kmax; k++ {
		got, want := r.At(k, k), rRef.At(k, k)
		if math.Abs(want) > 1e-8*amax && math.Signbit(got) != math.Signbit(want) {
			t.Fatalf("R[%d,%d] = %g, reference %g: sign rule broken", k, k, got, want)
		}
	}
	if kind != "duplicate" {
		if d := maxAbsDiff(r, rRef); !(d <= 1e-12*amax) {
			t.Fatalf("R differs from the reference kernel by %g", d)
		}
	}
	// A zero column takes the identity reflector and stays exactly zero.
	if kind == "zero" {
		for j := 1; j < n; j += 3 {
			for i := 0; i < tt; i++ {
				if r.At(i, j) != 0 {
					t.Fatalf("R[%d,%d] = %g for a zero column", i, j, r.At(i, j))
				}
			}
		}
	}

	// The implicit product against the explicit Q.
	at := a.T()
	f, r2 := FactorQR(&ws, at)
	if d := maxAbsDiff(r2, r); d != 0 {
		t.Fatalf("FactorQR's R differs from QRWith's by %g", d)
	}
	x := testutil.RandomDense(tt, 5, rng)
	got := mat.New(m, 5)
	f.MulQInto(&ws, got, x)
	if d := maxAbsDiff(got, mat.Mul(q, x)); !(d <= 1e-14) {
		t.Fatalf("‖Q·X − MulQInto(X)‖_max = %g", d)
	}
	f.Release(&ws)
}

func maxAbsDiff(x, y *mat.Dense) float64 {
	var d float64
	for i, v := range x.RawData() {
		if e := math.Abs(v - y.RawData()[i]); !(e <= d) {
			d = e
		}
	}
	return d
}

// TestMulQInPlace checks the in-place apply against MulQInto over the
// shapes of TestQRProperties: the first p rows of the factored buffer must
// become (Q·[X; 0])ᵀ. At m = 4096 with t ≤ 32 MulQInto takes the
// broadcast-axpy route, whose fused chains the in-place apply repeats, so
// there the two agree bit for bit.
func TestMulQInPlace(t *testing.T) {
	rng := testutil.NewRand(12)
	for _, n := range []int{1, 2, 7, 8, 9, 16, 24, 32, 40} {
		for _, m := range []int{n, n + 1, 2 * n, 300, 4096} {
			tt := min(m, n)
			for _, p := range []int{1, min(5, tt), tt} {
				checkMulQInPlace(t, qrInput(m, n, "random", rng), testutil.RandomDense(tt, p, rng))
			}
		}
	}
	checkMulQInPlace(t, qrInput(13, 30, "zero", rng), testutil.RandomDense(13, 13, rng))
	checkMulQInPlace(t, qrInput(4096, 32, "duplicate", rng), testutil.RandomDense(32, 16, rng))
}

func checkMulQInPlace(t *testing.T, a, x *mat.Dense) {
	t.Helper()
	m, n := a.Dims()
	tt, p := x.Dims()
	var ws mat.Workspace
	at := a.T()
	f, r := FactorQR(&ws, at)
	want := mat.New(m, p)
	f.MulQInto(&ws, want, x)
	f.MulQInPlace(&ws, x)
	f.Release(&ws)
	ws.Put(r)
	got := mat.New(p, m)
	copy(got.RawData(), at.RawData()[:p*m])
	wantT := want.T()
	if m == 4096 && tt <= 32 {
		if !mat.EqualApprox(got, wantT, 0) {
			t.Errorf("%dx%d, p = %d: in-place apply differs from MulQInto's broadcast-axpy route by %g",
				m, n, p, maxAbsDiff(got, wantT))
		}
		return
	}
	if d := maxAbsDiff(got, wantT); !(d <= 1e-14*x.MaxAbs()) {
		t.Errorf("%dx%d, p = %d: ‖(Q·X)ᵀ − in-place rows‖_max = %g", m, n, p, d)
	}
}

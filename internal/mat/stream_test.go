package mat

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// The parity suite of the packing-free streaming kernels (stream.go): for
// every kernel this CPU can run, the dot-block and broadcast-axpy kernels
// must agree with RefMulInto at every small inner or output width the QR
// uses and around every strip and vector-width edge of the long
// dimension, on strided operands whose padding they must neither read
// into a result nor write. CI also runs it under PARSVD_NOASM=1 and under
// qemu-aarch64, so the NEON bodies are covered there.

var (
	// streamSmall are the short widths: inner k for broadcast-axpy, output
	// columns for dot-block.
	streamSmall = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 24, 31, 32, 33}
	// streamLong are the long widths: every residue of the 16-wide strips
	// and vector steps, and both sides of 4096.
	streamLong = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 4095, 4096, 4097}
)

// sentinel fills the padding of strided buffers; a kernel that reads it
// into a result or writes over it shows up as a NaN or a changed bit.
var sentinel = math.Float64frombits(0x7ff8dead0000beef)

// strided lays m out with row stride ld ≥ m.cols, padding every gap (and
// one stride past the end) with the sentinel.
func strided(m *Dense, ld int) []float64 {
	buf := make([]float64, m.rows*ld+ld)
	for i := range buf {
		buf[i] = sentinel
	}
	for i := 0; i < m.rows; i++ {
		copy(buf[i*ld:], m.data[i*m.cols:(i+1)*m.cols])
	}
	return buf
}

// unstrided reads an r×c matrix back out of a strided buffer and checks
// that the padding still holds the sentinel bit for bit.
func unstrided(t *testing.T, what string, buf []float64, r, c, ld int) *Dense {
	t.Helper()
	out := New(r, c)
	for i := range buf {
		row, col := i/ld, i%ld
		if row < r && col < c {
			out.data[row*c+col] = buf[i]
		} else if math.Float64bits(buf[i]) != math.Float64bits(sentinel) {
			t.Fatalf("%s: padding at %d overwritten with %g", what, i, buf[i])
		}
	}
	return out
}

func forEachKernel(t *testing.T, f func(t *testing.T)) {
	for _, name := range AvailableKernels() {
		t.Run(name, func(t *testing.T) {
			restore, ok := ForceKernel(name)
			if !ok {
				t.Fatalf("ForceKernel(%q) refused an advertised kernel", name)
			}
			defer restore()
			f(t)
		})
	}
}

// TestStreamKernelParity drives both kernels through their strided entry
// points and through the Dense routes, overwrite and accumulate, against
// RefMulInto at every (short, long) width pair.
func TestStreamKernelParity(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(15))
		for _, s := range streamSmall {
			for _, l := range streamLong {
				checkDotParity(t, rng, 1, s, l)
				checkDotParity(t, rng, 5, s, l)
				checkAxpyParity(t, rng, 5, s, l)
				checkAxpyTransParity(t, rng, l, s)
			}
		}
	})
}

// checkDotParity checks C = A·Bᵀ for A m×k and B n×k (k long) through
// DotBlock on strided operands and through MulTransBInto.
func checkDotParity(t *testing.T, rng *rand.Rand, m, n, k int) {
	t.Helper()
	a, b := randomDense(m, k, rng), randomDense(n, k, rng)
	want := New(m, n)
	RefMulInto(want, a, b.T())
	tol := relTol(k, a, b)
	what := fmt.Sprintf("DotBlock %dx%d·(%dx%d)ᵀ", m, k, n, k)

	lda, ldb, ldc := k+3, k+5, n+2
	abuf, bbuf := strided(a, lda), strided(b, ldb)
	cbuf := strided(randomDense(m, n, rng), ldc) // overwritten, never read
	DotBlock(cbuf, ldc, abuf, lda, bbuf, ldb, m, n, k)
	if d := maxAbsDiff(unstrided(t, what, cbuf, m, n, ldc), want); d > tol {
		t.Errorf("%s: diverges from reference by %g (tol %g)", what, d, tol)
	}
	unstrided(t, what+" A", abuf, m, k, lda)
	unstrided(t, what+" B", bbuf, n, k, ldb)

	got := randomDense(m, n, rng)
	MulTransBInto(got, a, b)
	if d := maxAbsDiff(got, want); d > tol {
		t.Errorf("MulTransBInto %dx%d·(%dx%d)ᵀ: diverges by %g (tol %g)", m, k, n, k, d, tol)
	}
}

// checkAxpyParity checks C += A·B for A m×k (k short) and B k×n (n long)
// through AxpyBlock on strided operands, and C = A·B and C += A·B through
// MulInto and MulAddInto.
func checkAxpyParity(t *testing.T, rng *rand.Rand, m, k, n int) {
	t.Helper()
	a, b, c0 := randomDense(m, k, rng), randomDense(k, n, rng), randomDense(m, n, rng)
	prod := New(m, n)
	RefMulInto(prod, a, b)
	want := add(c0, prod)
	tol := relTol(k, a, b) + 1e-13*c0.MaxAbs()
	what := fmt.Sprintf("AxpyBlock %dx%d·%dx%d", m, k, k, n)

	lda, ldb, ldc := k+1, n+2, n+7
	abuf, bbuf, cbuf := strided(a, lda), strided(b, ldb), strided(c0, ldc)
	AxpyBlock(cbuf, ldc, abuf, lda, 1, bbuf, ldb, m, n, k)
	if d := maxAbsDiff(unstrided(t, what, cbuf, m, n, ldc), want); d > tol {
		t.Errorf("%s: diverges from reference by %g (tol %g)", what, d, tol)
	}
	unstrided(t, what+" A", abuf, m, k, lda)
	unstrided(t, what+" B", bbuf, k, n, ldb)

	got := c0.Clone()
	MulAddInto(got, a, b)
	if d := maxAbsDiff(got, want); d > tol {
		t.Errorf("MulAddInto %dx%d·%dx%d: diverges by %g (tol %g)", m, k, k, n, d, tol)
	}
	got = randomDense(m, n, rng)
	MulInto(got, a, b)
	if d := maxAbsDiff(got, prod); d > relTol(k, a, b) {
		t.Errorf("MulInto %dx%d·%dx%d: diverges by %g (tol %g)", m, k, k, n, d, relTol(k, a, b))
	}
}

// checkAxpyTransParity checks the apply's shape, C = Yᵀ·Z with Y k×m
// stored row-major (so A = Yᵀ is read at row stride 1, column stride
// ldy) and m long, through AxpyBlock and MulTransAInto.
func checkAxpyTransParity(t *testing.T, rng *rand.Rand, m, k int) {
	t.Helper()
	n := k
	y, z := randomDense(k, m, rng), randomDense(k, n, rng)
	want := New(m, n)
	RefMulInto(want, y.T(), z)
	tol := relTol(k, y, z)
	what := fmt.Sprintf("AxpyBlock (%dx%d)ᵀ·%dx%d", k, m, k, n)

	ldy, ldz, ldc := m+1, n+3, n+2
	ybuf, zbuf := strided(y, ldy), strided(z, ldz)
	cbuf := strided(New(m, n), ldc)
	AxpyBlock(cbuf, ldc, ybuf, 1, ldy, zbuf, ldz, m, n, k)
	if d := maxAbsDiff(unstrided(t, what, cbuf, m, n, ldc), want); d > tol {
		t.Errorf("%s: diverges from reference by %g (tol %g)", what, d, tol)
	}
	unstrided(t, what+" A", ybuf, k, m, ldy)

	got := randomDense(m, n, rng)
	MulTransAInto(got, y, z)
	if d := maxAbsDiff(got, want); d > tol {
		t.Errorf("MulTransAInto (%dx%d)ᵀ·%dx%d: diverges by %g (tol %g)", k, m, k, n, d, tol)
	}
}

// TestStreamKernelSplitInvariance pins the determinism contract: an output
// element's bits do not depend on which rows share its kernel call, so a
// product computed in arbitrary row blocks — as a pool fan-out splits it —
// equals the whole product bit for bit.
func TestStreamKernelSplitInvariance(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(16))
		for _, sh := range [][3]int{{37, 8, 4097}, {29, 24, 1000}, {13, 5, 33}} {
			m, s, l := sh[0], sh[1], sh[2]

			// Dot-block: C (m×s) = A (m×l) · B (s×l)ᵀ.
			a, b := randomDense(m, l, rng), randomDense(s, l, rng)
			whole := New(m, s)
			DotBlock(whole.data, s, a.data, l, b.data, l, m, s, l)
			split := New(m, s)
			for r0 := 0; r0 < m; {
				r1 := min(m, r0+1+rng.Intn(7))
				DotBlock(split.data[r0*s:], s, a.data[r0*l:], l, b.data, l, r1-r0, s, l)
				r0 = r1
			}
			requireSameBits(t, fmt.Sprintf("DotBlock %v", sh), whole, split)

			// Broadcast-axpy, both A layouts: C (m×l) += A (m×s) · B (s×l)
			// and C (l×s) += Yᵀ · Z with Y s×l.
			a2, b2, c0 := randomDense(m, s, rng), randomDense(s, l, rng), randomDense(m, l, rng)
			whole, split = c0.Clone(), c0.Clone()
			AxpyBlock(whole.data, l, a2.data, s, 1, b2.data, l, m, l, s)
			for r0 := 0; r0 < m; {
				r1 := min(m, r0+1+rng.Intn(7))
				AxpyBlock(split.data[r0*l:], l, a2.data[r0*s:], s, 1, b2.data, l, r1-r0, l, s)
				r0 = r1
			}
			requireSameBits(t, fmt.Sprintf("AxpyBlock %v", sh), whole, split)

			y, z := randomDense(s, l, rng), randomDense(s, s, rng)
			whole, split = New(l, s), New(l, s)
			AxpyBlock(whole.data, s, y.data, 1, l, z.data, s, l, s, s)
			for r0 := 0; r0 < l; {
				r1 := min(l, r0+1+rng.Intn(300))
				AxpyBlock(split.data[r0*s:], s, y.data[r0:], 1, l, z.data, s, r1-r0, s, s)
				r0 = r1
			}
			requireSameBits(t, fmt.Sprintf("AxpyBlock transposed %v", sh), whole, split)
		}
	})
}

// TestStreamRoutesGOMAXPROCS runs, for every kernel, products large
// enough to fan out across the worker pool and requires the same bits
// whether the pool runs them inline (GOMAXPROCS 1, one worker) or fans
// them out (GOMAXPROCS 4). The pool sizes itself once per process, at its
// first use, so each setting runs in a child process of the test binary,
// which reports its pool size beside a digest of the products.
func TestStreamRoutesGOMAXPROCS(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		if os.Getenv(routesChildEnv) != "" {
			rng := rand.New(rand.NewSource(17))
			y, z := randomDense(32, 4096, rng), randomDense(32, 16, rng)
			a, b, c0 := randomDense(600, 8, rng), randomDense(8, 4096, rng), randomDense(600, 4096, rng)
			g, p := randomDense(32, 4096, rng), randomDense(8, 4096, rng)
			q := New(4096, 16)
			MulTransAInto(q, y, z)
			c := c0.Clone()
			MulAddInto(c, a, b)
			gram := New(32, 8)
			MulTransBInto(gram, g, p)
			h := sha256.New()
			for _, m := range []*Dense{q, c, gram} {
				binary.Write(h, binary.LittleEndian, m.data)
			}
			fmt.Printf("routes pool=%d products=%x\n", kernelPool.workers, h.Sum(nil))
			return
		}
		run := "^TestStreamRoutesGOMAXPROCS$/^" + regexp.QuoteMeta(strings.TrimPrefix(t.Name(), "TestStreamRoutesGOMAXPROCS/")) + "$"
		var want string
		for _, procs := range []int{1, 4} {
			cmd := exec.Command(os.Args[0], "-test.run="+run, "-test.count=1")
			cmd.Env = append(os.Environ(), routesChildEnv+"=1", fmt.Sprintf("GOMAXPROCS=%d", procs))
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v\n%s", procs, err, out)
			}
			pool, products := -1, ""
			for _, line := range strings.Split(string(out), "\n") {
				if strings.HasPrefix(line, "routes ") {
					fmt.Sscanf(line, "routes pool=%d products=%s", &pool, &products)
				}
			}
			if pool != procs || products == "" {
				t.Fatalf("GOMAXPROCS=%d: want a pool of %d workers and the products' digest in\n%s", procs, procs, out)
			}
			if want == "" {
				want = products
			} else if products != want {
				t.Fatalf("GOMAXPROCS=%d products hash to %s, the inline ones to %s", procs, products, want)
			}
		}
	})
}

// routesChildEnv marks the child processes of TestStreamRoutesGOMAXPROCS.
const routesChildEnv = "GOPARSVD_ROUTES_CHILD"

func requireSameBits(t *testing.T, what string, x, y *Dense) {
	t.Helper()
	for i, v := range x.data {
		if math.Float64bits(v) != math.Float64bits(y.data[i]) {
			t.Fatalf("%s: element %d differs: %v vs %v", what, i, v, y.data[i])
		}
	}
}

// TestDotBlockEmptyInner checks that k = 0 overwrites C with the empty
// sums rather than leaving it as it was.
func TestDotBlockEmptyInner(t *testing.T) {
	c := []float64{1, 2, 3, 4}
	DotBlock(c, 2, nil, 0, nil, 0, 2, 2, 0)
	for i, v := range c {
		if v != 0 {
			t.Fatalf("c[%d] = %g after a k = 0 DotBlock, want 0", i, v)
		}
	}
}

// TestStreamBlockBounds checks the strided entry points reject operands
// too short for the shape instead of letting an assembly body read past
// them.
func TestStreamBlockBounds(t *testing.T) {
	buf := make([]float64, 10)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"DotBlock short A", func() { DotBlock(buf, 1, buf[:5], 5, buf, 0, 2, 1, 5) }},
		{"DotBlock short C", func() { DotBlock(buf[:1], 1, buf, 0, buf, 0, 1, 2, 3) }},
		{"AxpyBlock short B", func() { AxpyBlock(buf, 4, buf, 1, 1, buf[:7], 4, 1, 4, 2) }},
		{"AxpyBlock negative stride", func() { AxpyBlock(buf, 4, buf, -1, 1, buf, 4, 1, 4, 1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
}

// TestAxpyBlockZeroStrides covers strides of 0, which repeat one B row
// (ldb = 0) or one A scalar per row (csA = 0) across every k: the kernels
// must count k steps, not walk B to an end address.
func TestAxpyBlockZeroStrides(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(18))
		const m, k, n = 6, 5, 37
		arow, brow := randomDense(m, 1, rng), randomDense(1, n, rng)
		a, b := New(m, k), New(k, n)
		for i := 0; i < m; i++ {
			for kk := 0; kk < k; kk++ {
				a.Set(i, kk, arow.At(i, 0))
			}
		}
		for kk := 0; kk < k; kk++ {
			copy(b.RawData()[kk*n:(kk+1)*n], brow.RawData())
		}
		want := New(m, n)
		RefMulInto(want, a, b)
		got := New(m, n)
		AxpyBlock(got.data, n, arow.data, 1, 0, brow.data, 0, m, n, k)
		if d := maxAbsDiff(got, want); d > relTol(k, a, b) {
			t.Fatalf("zero-stride AxpyBlock diverges by %g", d)
		}
	})
}

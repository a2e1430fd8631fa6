package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference implementation.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j*k) / float64(n)
			sum += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = sum
	}
	return out
}

func randomComplex(n int, rng *rand.Rand) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func closeComplex(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := randomComplex(n, rng)
		if !closeComplex(FFT(x), naiveDFT(x), 1e-9*float64(n)) {
			t.Fatalf("n=%d: FFT disagrees with naive DFT", n)
		}
	}
}

func TestFFTImpulse(t *testing.T) {
	// DFT of a unit impulse is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	for k, v := range FFT(x) {
		if cmplx.Abs(v-1) > 1e-14 {
			t.Fatalf("impulse spectrum at %d: %v", k, v)
		}
	}
}

func TestFFTPureTone(t *testing.T) {
	// A complex exponential at bin 3 concentrates all energy there.
	const n = 32
	x := make([]complex128, n)
	for j := range x {
		x[j] = cmplx.Exp(complex(0, 2*math.Pi*3*float64(j)/n))
	}
	spec := FFT(x)
	for k, v := range spec {
		want := 0.0
		if k == 3 {
			want = n
		}
		if math.Abs(cmplx.Abs(v)-want) > 1e-10 {
			t.Fatalf("bin %d: |X| = %g, want %g", k, cmplx.Abs(v), want)
		}
	}
}

func TestIFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randomComplex(128, rng)
	if !closeComplex(IFFT(FFT(x)), x, 1e-12) {
		t.Fatal("IFFT(FFT(x)) != x")
	}
}

func TestFFTDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randomComplex(16, rng)
	before := append([]complex128(nil), x...)
	FFT(x)
	IFFT(x)
	if !closeComplex(x, before, 0) {
		t.Fatal("transforms mutated their input")
	}
}

func TestFFTRealConjugateSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xr := make([]complex128, 32)
	for i := range xr {
		xr[i] = complex(rng.NormFloat64(), 0)
	}
	spec := FFT(xr)
	for k := 1; k < 16; k++ {
		if cmplx.Abs(spec[k]-cmplx.Conj(spec[32-k])) > 1e-12 {
			t.Fatalf("conjugate symmetry violated at bin %d", k)
		}
	}
}

func TestFFTNonPowerOfTwoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length 12 did not panic")
		}
	}()
	FFT(make([]complex128, 12))
}

// Property: Parseval's theorem — Σ|x|² = (1/n)·Σ|X|².
func TestPropertyParseval(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (2 + rng.Intn(6))
		x := randomComplex(n, rng)
		spec := FFT(x)
		var et, ef float64
		for i := range x {
			et += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ef += real(spec[i])*real(spec[i]) + imag(spec[i])*imag(spec[i])
		}
		return math.Abs(et-ef/float64(n)) < 1e-9*(1+et)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: linearity of the transform.
func TestPropertyLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (2 + rng.Intn(5))
		x := randomComplex(n, rng)
		y := randomComplex(n, rng)
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a*x[i] + y[i]
		}
		fx, fy, fs := FFT(x), FFT(y), FFT(sum)
		for i := range fs {
			if cmplx.Abs(fs[i]-(a*fx[i]+fy[i])) > 1e-9*float64(n) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestHannWindow(t *testing.T) {
	w := HannWindow(8)
	if w[0] != 0 {
		t.Fatalf("Hann[0] = %g, want 0", w[0])
	}
	if math.Abs(w[4]-1) > 1e-15 {
		t.Fatalf("Hann[n/2] = %g, want 1", w[4])
	}
	// Symmetry about n/2 for the periodic window: w[j] == w[n-j].
	for j := 1; j < 8; j++ {
		if math.Abs(w[j]-w[8-j]) > 1e-15 {
			t.Fatalf("Hann asymmetric at %d", j)
		}
	}
}

func TestFrequencies(t *testing.T) {
	f := Frequencies(8, 0.5) // fs = 2 Hz, Nyquist 1 Hz
	if len(f) != 5 {
		t.Fatalf("got %d frequencies", len(f))
	}
	if f[0] != 0 || math.Abs(f[4]-1) > 1e-15 {
		t.Fatalf("axis = %v", f)
	}
}

func TestFrequenciesValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"length": func() { Frequencies(10, 1) },
		"dt":     func() { Frequencies(8, 0) },
	} {
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

func TestIsPowerOfTwo(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPowerOfTwo(n) {
			t.Fatalf("%d should be a power of two", n)
		}
	}
	for _, n := range []int{0, -2, 3, 12, 1000} {
		if IsPowerOfTwo(n) {
			t.Fatalf("%d should not be a power of two", n)
		}
	}
}

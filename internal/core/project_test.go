package core

import (
	"math"
	"testing"

	"goparsvd/internal/linalg"
	"goparsvd/internal/mat"
	"goparsvd/internal/stream"
	"goparsvd/internal/testutil"
)

func TestSerialCoefficientsRoundTrip(t *testing.T) {
	// For data that lies exactly in a rank-r subspace with K ≥ r, the
	// compress/reconstruct round trip is lossless, on the serial engine
	// and on the blocked one the Parallel backend runs.
	rng := testutil.NewRand(21)
	a, _ := testutil.RandomLowRank(60, 20, 4, 0, rng)
	opts := Options{K: 5, ForgetFactor: 1}
	for name, eng := range map[string]*stream.SVD{"serial": NewSerial(opts), "blocked": NewBlocked(opts, 3)} {
		t.Run(name, func(t *testing.T) {
			must(eng.Initialize(a.SliceCols(0, 10)))
			must(eng.IncorporateData(a.SliceCols(10, 20)))

			coeffs := Coefficients(eng, a)
			if coeffs.Rows() != 5 || coeffs.Cols() != 20 {
				t.Fatalf("coefficients shape %dx%d", coeffs.Rows(), coeffs.Cols())
			}
			recon := Reconstruct(eng, coeffs)
			if rel := mat.Sub(a, recon).FroNorm() / a.FroNorm(); rel > 1e-8 {
				t.Fatalf("lossless round trip failed: rel error %g", rel)
			}
		})
	}
}

func TestSerialReconstructionErrorMatchesEckartYoung(t *testing.T) {
	// For general data the rank-K round-trip error cannot beat the optimal
	// rank-K error, and with ff = 1 streaming it should be close to it.
	rng := testutil.NewRand(22)
	a := testutil.RandomDense(80, 24, rng)
	k := 6
	eng := NewSerial(Options{K: k, ForgetFactor: 1})
	must(eng.Initialize(a))

	recon := Reconstruct(eng, Coefficients(eng, a))
	got := mat.Sub(a, recon).FroNorm()
	_, s, _ := linalg.SVD(a)
	opt := 0.0
	for _, sv := range s[k:] {
		opt += sv * sv
	}
	opt = math.Sqrt(opt)
	if got < opt-1e-9 {
		t.Fatalf("beat Eckart-Young?! got %g < optimal %g", got, opt)
	}
	if got > 1.01*opt {
		t.Fatalf("round-trip error %g far from optimal %g", got, opt)
	}
}

func TestCoefficientsShapeErrors(t *testing.T) {
	rng := testutil.NewRand(24)
	eng := NewSerial(Options{K: 2, ForgetFactor: 1})
	must(eng.Initialize(testutil.RandomDense(10, 4, rng)))
	for name, fn := range map[string]func(){
		"coeff rows":  func() { Coefficients(eng, mat.New(9, 4)) },
		"recon shape": func() { Reconstruct(eng, mat.New(3, 4)) },
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

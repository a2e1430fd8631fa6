package parsvd_test

import (
	"math"
	"testing"

	parsvd "goparsvd"

	"goparsvd/internal/linalg"
	"goparsvd/internal/mat"
	"goparsvd/internal/testutil"
)

// pushed is a new SVD of opts fed the given batches; it fails t on any
// error.
func pushed(t *testing.T, opts []parsvd.Option, batches ...*mat.Dense) *parsvd.SVD {
	t.Helper()
	svd, err := parsvd.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := svd.Push(b); err != nil {
			t.Fatal(err)
		}
	}
	return svd
}

func TestSerialCoefficientsRoundTrip(t *testing.T) {
	// For data that lies exactly in a rank-r subspace with K ≥ r, the
	// compress/reconstruct round trip is lossless, on the Serial backend
	// and on the Parallel one.
	rng := testutil.NewRand(21)
	a, _ := testutil.RandomLowRank(60, 20, 4, 0, rng)
	for name, opts := range map[string][]parsvd.Option{
		"serial":   {parsvd.WithModes(5)},
		"parallel": {parsvd.WithModes(5), parsvd.WithBackend(parsvd.Parallel), parsvd.WithRanks(3)},
	} {
		t.Run(name, func(t *testing.T) {
			svd := pushed(t, opts, a.SliceCols(0, 10), a.SliceCols(10, 20))
			coeffs, err := svd.Coefficients(a)
			if err != nil {
				t.Fatal(err)
			}
			if coeffs.Rows() != 5 || coeffs.Cols() != 20 {
				t.Fatalf("coefficients shape %dx%d", coeffs.Rows(), coeffs.Cols())
			}
			recon, err := svd.Reconstruct(coeffs)
			if err != nil {
				t.Fatal(err)
			}
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
	svd := pushed(t, []parsvd.Option{parsvd.WithModes(k)}, a)
	coeffs, err := svd.Coefficients(a)
	if err != nil {
		t.Fatal(err)
	}
	recon, err := svd.Reconstruct(coeffs)
	if err != nil {
		t.Fatal(err)
	}
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

// TestCoefficientsShapeErrors: snapshots of the wrong height and
// coefficients of the wrong row count are errors, not panics.
func TestCoefficientsShapeErrors(t *testing.T) {
	rng := testutil.NewRand(24)
	svd := pushed(t, []parsvd.Option{parsvd.WithModes(2)}, testutil.RandomDense(10, 4, rng))
	for name, fn := range map[string]func() error{
		"coeff rows": func() error {
			_, err := svd.Coefficients(mat.New(9, 4))
			return err
		},
		"recon shape": func() error {
			_, err := svd.Reconstruct(mat.New(3, 4))
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			if err := fn(); err == nil {
				t.Fatalf("%s: no error", name)
			}
		})
	}
}

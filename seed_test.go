package parsvd_test

import (
	"bytes"
	"math"
	"testing"

	parsvd "goparsvd"

	"goparsvd/internal/testutil"
)

// TestDistributedSeedKeepsModesOrthonormal seeds the Distributed backend,
// two real worker processes, with the first batches the paper's APMOS
// initialization seeded wrongly (it divides by singular values at the
// roundoff floor of each rank's Gram matrix): a rank-2 batch seeded into
// K = 4 modes, and a 512×16 batch whose singular values fall over twelve
// decades. The modes must be orthonormal to 1e-13 and the graded spectrum
// the planted one to 1e-5 relative; internal/core's
// TestParallelSeedKeepsModesOrthonormal holds the in-process engine on 1
// to 4 ranks to the same.
func TestDistributedSeedKeepsModesOrthonormal(t *testing.T) {
	skipWithoutFleet(t)
	low, _ := testutil.RandomLowRank(64, 6, 2, 0, testutil.NewRand(1))
	graded, sigma := testutil.GradedBatch(512, 16, testutil.NewRand(1))
	for _, c := range []struct {
		name  string
		a     *parsvd.Matrix
		k     int
		sigma []float64
	}{
		{"rank-deficient", low, 4, nil},
		{"graded", graded, 16, sigma},
	} {
		t.Run(c.name, func(t *testing.T) {
			svd, err := parsvd.New(parsvd.WithModes(c.k), parsvd.WithForgetFactor(1),
				parsvd.WithBackend(parsvd.Distributed), parsvd.WithRanks(2))
			if err != nil {
				t.Fatal(err)
			}
			defer svd.Close()
			if err := svd.Push(c.a); err != nil {
				t.Fatal(err)
			}
			// A Distributed Result carries no modes; its checkpoint
			// gathers them.
			var ckpt bytes.Buffer
			if err := svd.Save(&ckpt); err != nil {
				t.Fatal(err)
			}
			loaded, err := parsvd.Load(&ckpt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := loaded.Result()
			if err != nil {
				t.Fatal(err)
			}
			if loss := testutil.OrthonormalityLoss(res.Modes); !(loss <= 1e-13) {
				t.Errorf("‖UᵀU−I‖_max = %g", loss)
			}
			for j, want := range c.sigma {
				if got := res.Singular[j]; !(math.Abs(got-want) <= 1e-5*want) {
					t.Errorf("σ_%d = %g, planted %g", j, got, want)
				}
			}
		})
	}
}

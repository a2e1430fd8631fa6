package core

import (
	"math"
	"sync"
	"testing"

	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/testutil"
)

// seedCase is a first batch the paper's APMOS initialization seeded
// wrongly: it forms each rank's Gram matrix AᵢᵀAᵢ and divides by its
// singular values, so modes whose singular values sit at the Gram's
// roundoff floor come out far from orthonormal.
type seedCase struct {
	name string
	a    *mat.Dense
	k    int
	// sigma, when set, are the batch's exact singular values, which the
	// seeded spectrum must match to 1e-5 relative.
	sigma []float64
}

// seedCases are the two reproducers: a rank-2 batch of 6 snapshots seeded
// into K = 4 modes, so two modes span its null space, and a 512×16 batch
// whose singular values fall over twelve decades, seeded into K = 16.
func seedCases() []seedCase {
	low, _ := testutil.RandomLowRank(64, 6, 2, 0, testutil.NewRand(1))
	graded, sigma := testutil.GradedBatch(512, 16, testutil.NewRand(1))
	return []seedCase{
		{"rank-deficient", low, 4, nil},
		{"graded", graded, 16, sigma},
	}
}

// TestParallelSeedKeepsModesOrthonormal seeds Parallel engines on 1 to 4
// ranks with each reproducer as the first batch: the gathered modes must
// be orthonormal to 1e-13, as the serial engine's are, and the graded
// spectrum must be the planted one.
func TestParallelSeedKeepsModesOrthonormal(t *testing.T) {
	for _, c := range seedCases() {
		for p := 1; p <= 4; p++ {
			blocks := splitRows(c.a, p)
			var mu sync.Mutex
			var modes *mat.Dense
			var s []float64
			mpi.MustRun(p, func(comm *mpi.Comm) {
				eng := NewParallel(comm, Options{K: c.k, ForgetFactor: 1})
				must(eng.Initialize(blocks[comm.Rank()]))
				g := gatherModes(eng)
				if comm.Rank() == 0 {
					mu.Lock()
					modes, s = ModeMatrix(g...), append([]float64(nil), eng.SingularValues()...)
					mu.Unlock()
				}
			})
			if loss := testutil.OrthonormalityLoss(modes); !(loss <= 1e-13) {
				t.Errorf("%s on %d ranks: ‖UᵀU−I‖_max = %g", c.name, p, loss)
			}
			for j, want := range c.sigma {
				if !(math.Abs(s[j]-want) <= 1e-5*want) {
					t.Errorf("%s on %d ranks: σ_%d = %g, planted %g", c.name, p, j, s[j], want)
				}
			}
		}
	}
}

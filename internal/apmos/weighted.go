package apmos

import (
	"fmt"
	"math"

	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
)

// Weighted POD. The original APMOS paper (Wang, McBee & Iliescu 2016)
// formulates the method for inner products weighted by quadrature or
// cell-volume weights — on a non-uniform mesh the POD optimality property
// only holds in the weighted norm ⟨u, v⟩_w = uᵀ·diag(w)·v. PyParSVD's
// released code assumes uniform weights; this is the general form.
//
// The implementation is the standard change of variables: decompose
// Ã_i = diag(√w_i)·A_i with the unweighted algorithm, then map the modes
// back with diag(1/√w_i). The returned modes are orthonormal in the
// weighted inner product: Uᵀ·diag(w)·U = I.

// WeightedDecompose runs Algorithm 2 under the weighted inner product
// defined by the per-row weights w (one entry per local grid point, all
// strictly positive — e.g. cell volumes or quadrature weights). Shapes and
// semantics otherwise match Decompose: the modes come back mode-major.
func WeightedDecompose(c *mpi.Comm, a *mat.Dense, w []float64, opts Options) (rows *mat.Dense, s []float64) {
	if len(w) != a.Rows() {
		panic(fmt.Sprintf("apmos: %d weights for %d local rows", len(w), a.Rows()))
	}
	sqrtW := make([]float64, len(w))
	invSqrtW := make([]float64, len(w))
	for i, v := range w {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("apmos: weight[%d] = %g must be positive and finite", i, v))
		}
		sqrtW[i] = math.Sqrt(v)
		invSqrtW[i] = 1 / sqrtW[i]
	}
	scaled := mat.DiagMul(sqrtW, a)
	weightedRows, s := Decompose(c, scaled, opts)
	// Mode-major, the row scaling diag(1/√w)·U scales columns of Uᵀ.
	mat.MulDiagInto(weightedRows, weightedRows, invSqrtW)
	return weightedRows, s
}

// WeightedGram computes Uᵀ·diag(w)·U, the Gram matrix of the columns of U
// in the weighted inner product; for weighted-orthonormal modes it is the
// identity. Exposed for validation and tests.
func WeightedGram(u *mat.Dense, w []float64) *mat.Dense {
	if len(w) != u.Rows() {
		panic(fmt.Sprintf("apmos: %d weights for %d rows", len(w), u.Rows()))
	}
	return mat.MulTransA(u, mat.DiagMul(w, u))
}

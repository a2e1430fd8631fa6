package apmos

import (
	"math"
	"sync"
	"testing"

	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/testutil"
)

// runWeighted executes WeightedDecompose over p ranks with per-rank weight
// slices and stitches the global modes.
func runWeighted(t *testing.T, a *mat.Dense, w []float64, p int, opts Options) (*mat.Dense, []float64) {
	t.Helper()
	blocks := splitRows(a, p)
	wBlocks := make([][]float64, p)
	off := 0
	for r := 0; r < p; r++ {
		wBlocks[r] = w[off : off+blocks[r].Rows()]
		off += blocks[r].Rows()
	}
	modeBlocks := make([]*mat.Dense, p)
	var s []float64
	var mu sync.Mutex
	mpi.MustRun(p, func(c *mpi.Comm) {
		m, sv := WeightedDecompose(c, blocks[c.Rank()], wBlocks[c.Rank()], opts)
		mu.Lock()
		modeBlocks[c.Rank()] = m
		if c.Rank() == 0 {
			s = sv
		}
		mu.Unlock()
	})
	return mat.HStack(modeBlocks...).T(), s
}

func TestWeightedUniformReducesToStandard(t *testing.T) {
	rng := testutil.NewRand(51)
	a, _ := testutil.RandomLowRank(60, 14, 4, 1e-8, rng)
	w := make([]float64, 60)
	for i := range w {
		w[i] = 1
	}
	opts := Options{K: 3, R1: 14, R2: 3}
	standard, sStd := runDecompose(t, a, 2, opts)
	weighted, sW := runWeighted(t, a, w, 2, opts)
	if !testutil.CloseSlices(sStd, sW, 1e-10) {
		t.Fatalf("uniform weights changed the spectrum: %v vs %v", sW, sStd)
	}
	if err := testutil.SubspaceError(standard, weighted); err > 1e-8 {
		t.Fatalf("uniform weights changed the modes: %g", err)
	}
}

func TestWeightedModesWeightOrthonormal(t *testing.T) {
	rng := testutil.NewRand(52)
	a, _ := testutil.RandomLowRank(80, 16, 5, 1e-7, rng)
	w := make([]float64, 80)
	for i := range w {
		w[i] = 0.5 + rng.Float64()*3 // strongly non-uniform cell volumes
	}
	modes, _ := runWeighted(t, a, w, 4, Options{K: 4, R1: 16, R2: 4})
	gram := WeightedGram(modes, w)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(gram.At(i, j)-want) > 1e-6 {
				t.Fatalf("weighted Gram[%d,%d] = %g, want %g", i, j, gram.At(i, j), want)
			}
		}
	}
}

func TestWeightedMatchesExplicitScaling(t *testing.T) {
	// WeightedDecompose must equal: scale rows by sqrt(w), run the plain
	// serial SVD, unscale — the defining change of variables.
	rng := testutil.NewRand(53)
	a, _ := testutil.RandomLowRank(50, 12, 3, 0, rng)
	w := make([]float64, 50)
	sqrtW := make([]float64, 50)
	invSqrtW := make([]float64, 50)
	for i := range w {
		w[i] = 1 + rng.Float64()
		sqrtW[i] = math.Sqrt(w[i])
		invSqrtW[i] = 1 / sqrtW[i]
	}
	wantModes, wantS := DecomposeSerial(mat.DiagMul(sqrtW, a), 3)
	wantModes = mat.DiagMul(invSqrtW, wantModes)

	gotModes, gotS := runWeighted(t, a, w, 2, Options{K: 3, R1: 12, R2: 3})
	if !testutil.CloseSlices(gotS, wantS, 1e-8) {
		t.Fatalf("spectra differ: %v vs %v", gotS, wantS)
	}
	if err := testutil.MaxColumnError(wantModes, gotModes); err > 1e-6 {
		t.Fatalf("modes differ by %g", err)
	}
}

func TestWeightedValidation(t *testing.T) {
	a := mat.New(4, 2)
	for name, w := range map[string][]float64{
		"length":   {1, 1},
		"zero":     {1, 0, 1, 1},
		"negative": {1, -2, 1, 1},
		"nan":      {1, math.NaN(), 1, 1},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			mpi.MustRun(1, func(c *mpi.Comm) {
				WeightedDecompose(c, a, w, Options{K: 1, R1: 2, R2: 1})
			})
		})
	}
}

func TestWeightedGramValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("weight length mismatch did not panic")
		}
	}()
	WeightedGram(mat.New(3, 2), []float64{1, 2})
}

package core_test

import (
	"fmt"

	"goparsvd/internal/core"
	"goparsvd/internal/grid"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
)

// rankOneBatch builds an M×B batch whose columns are multiples of a fixed
// spatial pattern, so the data has exactly one nonzero singular value and
// the example output is deterministic.
func rankOneBatch(m, b int, scale float64) *mat.Dense {
	out := mat.New(m, b)
	for j := 0; j < b; j++ {
		for i := 0; i < m; i++ {
			out.Set(i, j, scale*float64(i+1))
		}
	}
	return out
}

// ExampleParallel demonstrates the distributed workflow: four ranks each
// hold a row block, stream batches, and rank 0 gathers the global modes.
func ExampleParallel() {
	const m, ranks = 64, 4
	full := rankOneBatch(m, 6, 2.0)
	parts := grid.Partition(m, ranks)

	mpi.MustRun(ranks, func(c *mpi.Comm) {
		pr := parts[c.Rank()]
		eng := core.NewParallel(c, core.Options{K: 2, ForgetFactor: 1.0})
		if err := eng.Initialize(full.SliceRows(pr.Start, pr.End)); err != nil {
			panic(err) // mpi.MustRun aborts the world and re-panics
		}
		blocks, err := eng.GatherModeRows() // K×M, mode-major, one block per rank
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			r, k := core.ModeMatrix(blocks...).Dims()
			fmt.Printf("gathered modes: %dx%d\n", r, k)
			fmt.Printf("significant values: %d\n", countSignificant(eng.SingularValues()))
		}
	})
	// Output:
	// gathered modes: 64x2
	// significant values: 1
}

// countSignificant counts values above a 1e-6 relative threshold.
func countSignificant(s []float64) int {
	n := 0
	for _, v := range s {
		if v > 1e-6*s[0] {
			n++
		}
	}
	return n
}

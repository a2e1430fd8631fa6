package core

import (
	"testing"

	"goparsvd/internal/mpi"
	"goparsvd/internal/testutil"
)

// BenchmarkParallelInitialize seeds a two-rank in-process world at the
// fit-distributed shape (M = 4096, B = K = 16): each rank's block of the
// batch is transposed into the first rows of the 32×2048 buffer the
// engine keeps (FirstBatch), and the seeding update's TSQR writes the
// 16×2048 modes mode-major over them, so the bytes per op are about that
// buffer per rank, and the first update allocates none.
func BenchmarkParallelInitialize(b *testing.B) {
	const m, k, ranks = 4096, 16, 2
	blocks := splitRows(testutil.RandomDense(m, k, testutil.NewRand(1)), ranks)
	opts := Options{K: k, ForgetFactor: 1}
	b.ReportAllocs()
	b.ResetTimer()
	mpi.MustRun(ranks, func(c *mpi.Comm) {
		for i := 0; i < b.N; i++ {
			NewParallel(c, opts).Initialize(blocks[c.Rank()])
		}
	})
}

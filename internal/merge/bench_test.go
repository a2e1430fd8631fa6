package merge_test

import (
	"testing"

	"goparsvd/internal/merge"
	"goparsvd/internal/testutil"
)

// BenchmarkMergePairSteadyState exercises the allocation-free merge hot
// path: one Merger, one reused destination, same-shaped operands. Its
// baseline is 0 allocs/op, which `make bench-trajectory` lets no run exceed.
func BenchmarkMergePairSteadyState(b *testing.B) {
	const (
		rows = 512
		k    = 16
	)
	a, _ := testutil.RandomLowRank(rows, 2*k, k, 1e-10, testutil.NewRand(1))
	c, _ := testutil.RandomLowRank(rows, 2*k, k, 1e-10, testutil.NewRand(2))
	pa, pb := svdPartial(a, k), svdPartial(c, k)

	var m merge.Merger
	var dst merge.Partial
	// Warm the workspace pools and dst.S capacity.
	if err := m.Pair(&dst, pa, pb, k); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Pair(&dst, pa, pb, k); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeTree8 reduces eight shard partials up a balanced tree,
// the shape used by MergeCheckpoints and sharded Fit.
func BenchmarkMergeTree8(b *testing.B) {
	const (
		rows = 512
		k    = 16
	)
	parts := make([]*merge.Partial, 8)
	for i := range parts {
		a, _ := testutil.RandomLowRank(rows, 2*k, k, 1e-10, testutil.NewRand(int64(i+1)))
		parts[i] = svdPartial(a, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := merge.Tree(parts, merge.TreeOptions{K: k, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

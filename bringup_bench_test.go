package parsvd_test

import (
	"testing"

	parsvd "goparsvd"
	"goparsvd/internal/testutil"
)

// BenchmarkFacadeBringUp times a serial-backend bring-up as the fit-serial
// workload measures it: New plus the first Push, M = 4096 rows, B = 16
// snapshots, K = 16 modes, then Close. Every op after the first starts
// from the buffer the previous op's Close released, so it times the warm
// bring-up, and B/op is what a bring-up allocates besides that buffer.
// The bench-trajectory gate fails on an increase in allocs/op, not in
// B/op; TestBringUpFootprint bounds the bytes.
func BenchmarkFacadeBringUp(b *testing.B) {
	const rows, batch, modes = 4096, 16, 16
	first := testutil.RandomDense(rows, batch, testutil.NewRand(31))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		svd, err := parsvd.New(parsvd.WithModes(modes), parsvd.WithForgetFactor(1))
		if err != nil {
			b.Fatal(err)
		}
		if err := svd.Push(first); err != nil {
			b.Fatal(err)
		}
		if err := svd.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

package parsvd_test

import (
	"testing"

	parsvd "goparsvd"
	"goparsvd/internal/testutil"
)

// BenchmarkFacadeBringUp times a serial-backend bring-up as the fit-serial
// workload measures it: New plus the first Push, M = 4096 rows, B = 16
// snapshots, K = 16 modes. Every op starts a fresh engine, so B/op is the
// bring-up's memory footprint; the bench-trajectory gate fails on any
// allocation increase, which pins that footprint without a timing.
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

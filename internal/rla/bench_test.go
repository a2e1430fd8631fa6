package rla

import (
	"testing"

	"goparsvd/internal/linalg"
	"goparsvd/internal/testutil"
)

func BenchmarkRandomizedSVDvsDeterministic(b *testing.B) {
	b.ReportAllocs()
	rng := testutil.NewRand(1)
	a := testutil.RandomDense(2048, 128, rng)
	b.Run("randomized-k10", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			RandomizedSVDWith(nil, a, 10, DefaultOptions())
		}
	})
	b.Run("deterministic-full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linalg.SVD(a)
		}
	})
}

func BenchmarkRangeFinderPowerIters(b *testing.B) {
	b.ReportAllocs()
	rng := testutil.NewRand(2)
	a := testutil.RandomDense(1024, 256, rng)
	for _, q := range []int{0, 1, 2} {
		opts := Options{Oversample: 10, PowerIters: q, Seed: 1}
		b.Run(map[int]string{0: "q0", 1: "q1", 2: "q2"}[q], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RangeFinderWith(nil, a, 10, opts)
			}
		})
	}
}

package mpi

import (
	"testing"

	"goparsvd/internal/mat"
)

func BenchmarkPingPong(b *testing.B) {
	payload := mat.New(32, 32)
	b.ResetTimer()
	MustRun(2, func(c *Comm) {
		var got mat.Dense
		for i := 0; i < b.N; i++ {
			if c.Rank() == 0 {
				must(c.SendMatrix(1, 0, payload))
				must(c.RecvMatrixInto(1, 1, &got))
			} else {
				must(c.RecvMatrixInto(0, 0, &got))
				must(c.SendMatrix(0, 1, &got))
			}
		}
	})
}

func BenchmarkBcast8Ranks(b *testing.B) {
	payload := make([]float64, 4096)
	b.ResetTimer()
	MustRun(8, func(c *Comm) {
		for i := 0; i < b.N; i++ {
			var in []float64
			if c.Rank() == 0 {
				in = payload
			}
			bcast(c, 0, in)
		}
	})
}

func BenchmarkGather8Ranks(b *testing.B) {
	payload := mat.New(64, 64)
	b.ResetTimer()
	MustRun(8, func(c *Comm) {
		for i := 0; i < b.N; i++ {
			c.ReleaseViews(0, gather(c, 0, payload))
		}
	})
}

func BenchmarkBarrier8Ranks(b *testing.B) {
	MustRun(8, func(c *Comm) {
		for i := 0; i < b.N; i++ {
			must(c.Barrier())
		}
	})
}

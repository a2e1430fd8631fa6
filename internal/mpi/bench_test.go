package mpi

import (
	"testing"

	"goparsvd/internal/mat"
)

func BenchmarkPingPong(b *testing.B) {
	payload := make([]float64, 1024)
	b.ResetTimer()
	MustRun(2, func(c *Comm) {
		for i := 0; i < b.N; i++ {
			if c.Rank() == 0 {
				c.Send(1, 0, payload)
				c.Recv(1, 1)
			} else {
				got := c.Recv(0, 0)
				c.Send(0, 1, got)
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
			c.BcastFloats(0, in)
		}
	})
}

func BenchmarkGather8Ranks(b *testing.B) {
	payload := mat.New(64, 64)
	b.ResetTimer()
	MustRun(8, func(c *Comm) {
		for i := 0; i < b.N; i++ {
			c.GatherMatrix(0, payload)
		}
	})
}

func BenchmarkBarrier8Ranks(b *testing.B) {
	MustRun(8, func(c *Comm) {
		for i := 0; i < b.N; i++ {
			c.Barrier()
		}
	})
}

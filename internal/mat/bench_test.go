package mat

import (
	"math/rand"
	"testing"
)

func benchMatrix(r, c int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	m := New(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

func BenchmarkMulSquare256(b *testing.B) {
	b.ReportAllocs()
	x := benchMatrix(256, 256, 1)
	y := benchMatrix(256, 256, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
	b.SetBytes(int64(8 * 256 * 256))
}

func BenchmarkMulSquare512(b *testing.B) {
	b.ReportAllocs()
	x := benchMatrix(512, 512, 10)
	y := benchMatrix(512, 512, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
	b.SetBytes(int64(8 * 512 * 512))
}

func BenchmarkMulIntoSquare256(b *testing.B) {
	// The allocation-free entry point the streaming hot paths use.
	b.ReportAllocs()
	x := benchMatrix(256, 256, 12)
	y := benchMatrix(256, 256, 13)
	out := New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(out, x, y)
	}
}

func BenchmarkMulTallSkinny(b *testing.B) {
	b.ReportAllocs()
	// The library's dominant shape: very tall times small.
	x := benchMatrix(16384, 64, 3)
	y := benchMatrix(64, 64, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkMulTransAGram(b *testing.B) {
	b.ReportAllocs()
	// Gram matrix formation AᵀA, the method-of-snapshots kernel.
	x := benchMatrix(8192, 96, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulTransA(x, x)
	}
}

func BenchmarkTranspose(b *testing.B) {
	b.ReportAllocs()
	x := benchMatrix(1024, 512, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.T()
	}
}

func BenchmarkHStack(b *testing.B) {
	b.ReportAllocs()
	x := benchMatrix(4096, 32, 7)
	y := benchMatrix(4096, 32, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HStack(x, y)
	}
}

func BenchmarkFroNorm(b *testing.B) {
	b.ReportAllocs()
	x := benchMatrix(2048, 256, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.FroNorm()
	}
}

// BenchmarkStreamDot times the dot-block route at the streaming QR's Gram
// product: one panel of 8 Householder vectors against the whole 32×4096
// factored buffer (C = A·Bᵀ, 32×8 output, k = 4096).
func BenchmarkStreamDot(b *testing.B) {
	b.ReportAllocs()
	a := benchMatrix(32, 4096, 20)
	p := benchMatrix(8, 4096, 21)
	out := New(32, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulTransBInto(out, a, p)
	}
}

// BenchmarkStreamAxpy times the broadcast-axpy route at the streaming QR's
// two small-k products: the rank-8 trailing update of 24 columns
// (C += A·B, 24×4096 += 24×8 · 8×4096) and the apply Q·X at 4096×32
// (C = Yᵀ·Z, Y 32×4096, Z 32×16).
func BenchmarkStreamAxpy(b *testing.B) {
	b.Run("trailing", func(b *testing.B) {
		b.ReportAllocs()
		a := benchMatrix(24, 8, 22)
		p := benchMatrix(8, 4096, 23)
		out := benchMatrix(24, 4096, 24)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MulAddInto(out, a, p)
		}
	})
	b.Run("applyQ", func(b *testing.B) {
		b.ReportAllocs()
		y := benchMatrix(32, 4096, 25)
		z := benchMatrix(32, 16, 26)
		out := New(4096, 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MulTransAInto(out, y, z)
		}
	})
}

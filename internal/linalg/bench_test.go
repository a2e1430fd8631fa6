package linalg

import (
	"fmt"
	"testing"

	"goparsvd/internal/mat"
	"goparsvd/internal/testutil"
)

func BenchmarkQRTallSkinny(b *testing.B) {
	b.ReportAllocs()
	// The streaming update's QR shape: tall block, K+batch columns.
	rng := testutil.NewRand(1)
	a := testutil.RandomDense(8192, 64, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QR(a)
	}
}

func BenchmarkQRSquare(b *testing.B) {
	b.ReportAllocs()
	rng := testutil.NewRand(2)
	a := testutil.RandomDense(256, 256, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QR(a)
	}
}

func BenchmarkSVDSquare128(b *testing.B) {
	b.ReportAllocs()
	rng := testutil.NewRand(3)
	a := testutil.RandomDense(128, 128, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SVD(a)
	}
}

func BenchmarkSVDTall(b *testing.B) {
	b.ReportAllocs()
	// Exercises the QR-first reduction path (m ≥ 2n).
	rng := testutil.NewRand(4)
	a := testutil.RandomDense(2048, 96, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SVD(a)
	}
}

func BenchmarkJacobiSVD64(b *testing.B) {
	b.ReportAllocs()
	rng := testutil.NewRand(5)
	a := testutil.RandomDense(64, 64, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JacobiSVD(a)
	}
}

func BenchmarkEigSym96(b *testing.B) {
	b.ReportAllocs()
	rng := testutil.NewRand(6)
	eigs := make([]float64, 96)
	for i := range eigs {
		eigs[i] = float64(96 - i)
	}
	a := testutil.RandomSPD(96, eigs, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EigSym(a)
	}
}

// BenchmarkQRStreamShape times the thin QR at the streaming update's real
// shapes — M = 4096 rows, K+B = 16 and 32 columns — with a warm workspace,
// so steady-state calls must report 0 allocs/op.
func BenchmarkQRStreamShape(b *testing.B) {
	for _, n := range []int{16, 32} {
		b.Run(fmt.Sprintf("4096x%d", n), func(b *testing.B) {
			b.ReportAllocs()
			a := testutil.RandomDense(4096, n, testutil.NewRand(int64(n)))
			var ws mat.Workspace
			q, r := QRWith(&ws, a)
			ws.Put(q)
			ws.Put(r)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q, r := QRWith(&ws, a)
				ws.Put(q)
				ws.Put(r)
			}
		})
	}
}

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

// BenchmarkApplyQStreamShape times the two applies of the streaming
// update's factorization — M = 4096 rows, K+B = 32 columns, the leading
// p = 16 columns of Ũ — into a separate 4096×16 destination (MulQInto)
// and over the factored buffer's first 16 rows (MulQInPlace). The in-place
// apply spends the rows it overwrites, so every op of both restores them
// first. Warm workspace: 0 allocs/op.
func BenchmarkApplyQStreamShape(b *testing.B) {
	const m, n, p = 4096, 32, 16
	rng := testutil.NewRand(7)
	at := testutil.RandomDense(n, m, rng)
	x := testutil.RandomDense(n, p, rng)
	var ws mat.Workspace
	f, r := FactorQR(&ws, at)
	ws.Put(r)
	saved := append([]float64(nil), at.RawData()[:p*m]...)
	dst := mat.New(m, p)
	for _, inPlace := range []bool{false, true} {
		name := "into"
		if inPlace {
			name = "in-place"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(at.RawData(), saved)
				if inPlace {
					f.MulQInPlace(&ws, x)
				} else {
					f.MulQInto(&ws, dst, x)
				}
			}
		})
	}
}

// BenchmarkSmallSVDStreamShape times the streaming update's small SVD, the
// 32×32 upper-triangular R of a 4096×32 stack, with and without V.
func BenchmarkSmallSVDStreamShape(b *testing.B) {
	_, r := QR(testutil.RandomDense(4096, 32, testutil.NewRand(8)))
	for _, left := range []bool{false, true} {
		name := "SVDWith"
		if left {
			name = "SVDLeftWith"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var ws mat.Workspace
			for i := 0; i < b.N; i++ {
				if left {
					u, s := SVDLeftWith(&ws, r)
					ws.Put(u)
					ws.PutFloats(s)
				} else {
					u, s, v := SVDWith(&ws, r)
					ws.Put(u)
					ws.Put(v)
					ws.PutFloats(s)
				}
			}
		})
	}
}

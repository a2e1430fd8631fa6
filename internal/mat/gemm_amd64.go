//go:build amd64 && !purego

package mat

// hasAVX2FMA reports whether the processor supports AVX2 and FMA3 and the
// OS has enabled YMM state saving (implemented in gemm_amd64.s).
func hasAVX2FMA() bool

// hasAVX512F reports whether the processor supports AVX-512F and the OS
// has enabled ZMM and opmask state saving (implemented in gemm_amd64.s).
func hasAVX512F() bool

// microFMA8x4 computes the 8×4 product tile dst = Ap·Bp over kc packed
// k-steps: ap is an 8-row strip (k-major, 8 doubles per k), bp a 4-column
// strip (k-major, 4 doubles per k), dst a row-major tile with stride 4
// (implemented in gemm_amd64.s).
//
//go:noescape
func microFMA8x4(kc int, ap, bp, dst *float64)

// microAVX512F8x8 computes the 8×8 product tile dst = Ap·Bp over kc packed
// k-steps: ap is an 8-row strip (k-major, 8 doubles per k), bp an 8-column
// strip (k-major, 8 doubles per k), dst a row-major tile with stride 8
// (implemented in gemm_amd64.s).
//
//go:noescape
func microAVX512F8x8(kc int, ap, bp, dst *float64)

// dot4AVX512 and dot4FMA are the dot-block kernel bodies: s_j = a·b_j
// over k elements, k a positive multiple of 16 (AVX-512) or 8 (AVX2)
// (implemented in gemm_amd64.s).
//
//go:noescape
func dot4AVX512(k int, a, b0, b1, b2, b3 *float64) (s0, s1, s2, s3 float64)

//go:noescape
func dot4FMA(k int, a, b0, b1, b2, b3 *float64) (s0, s1, s2, s3 float64)

// axpy16AVX512 and axpy8FMA are the broadcast-axpy kernel bodies (see
// axpyFunc) over n columns, any positive n (AVX-512) or a positive
// multiple of 8 (AVX2) (implemented in gemm_amd64.s).
//
//go:noescape
func axpy16AVX512(rows, n, k int, a *float64, rsA, csA int, b *float64, ldb int, c *float64, ldc int, acc bool)

//go:noescape
func axpy8FMA(rows, n, k int, a *float64, rsA, csA int, b *float64, ldb int, c *float64, ldc int, acc bool)

func dotAVX512(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	return dotAsm(dot4AVX512, 16, a, b0, b1, b2, b3)
}

func dotAVX2(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	return dotAsm(dot4FMA, 8, a, b0, b1, b2, b3)
}

// axpyAVX512 masks the last partial strip inside the assembly body.
func axpyAVX512(rows, n, k int, a []float64, rsA, csA int, b []float64, ldb int, c []float64, ldc int, acc bool) {
	axpy16AVX512(rows, n, k, &a[0], rsA, csA, &b[0], ldb, &c[0], ldc, acc)
}

// axpyAVX2 runs the assembly body over the widest multiple of its strip
// width and the remaining columns through the fused tail.
func axpyAVX2(rows, n, k int, a []float64, rsA, csA int, b []float64, ldb int, c []float64, ldc int, acc bool) {
	nv := n &^ 7
	if nv > 0 {
		axpy8FMA(rows, nv, k, &a[0], rsA, csA, &b[0], ldb, &c[0], ldc, acc)
	}
	axpyTailFMA(rows, nv, n, k, a, rsA, csA, b, ldb, c, ldc, acc)
}

func microAVX2(kc int, ap, bp []float64, tile *[maxMR * maxNR]float64) {
	microFMA8x4(kc, &ap[0], &bp[0], &tile[0])
}

func microAVX512(kc int, ap, bp []float64, tile *[maxMR * maxNR]float64) {
	microAVX512F8x8(kc, &ap[0], &bp[0], &tile[0])
}

// archKernels returns the assembly kernels this CPU supports, best-first.
// The AVX-512 kernel's narrow sibling is the AVX2 8×4 kernel: for skinny
// right-hand sides the selection table (seltab_gen.go) routes products
// below SkinnyN output columns to it, because a 8-wide tile wastes most of
// its lanes on edge strips there.
func archKernels() []*kernelCfg {
	var ks []*kernelCfg
	var avx2 *kernelCfg
	if hasAVX2FMA() {
		avx2 = &kernelCfg{name: "avx2-8x4", mr: 8, nr: 4, micro: microAVX2, dot: dotAVX2, axpy: axpyAVX2}
	}
	if hasAVX512F() {
		ks = append(ks, &kernelCfg{name: "avx512-8x8", mr: 8, nr: 8, micro: microAVX512, narrow: avx2, dot: dotAVX512, axpy: axpyAVX512})
	}
	if avx2 != nil {
		ks = append(ks, avx2)
	}
	return ks
}

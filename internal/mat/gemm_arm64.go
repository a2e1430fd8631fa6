//go:build arm64 && !purego

package mat

// microNEON8x4Asm computes the 8×4 product tile dst = Ap·Bp over kc packed
// k-steps: ap is an 8-row strip (k-major, 8 doubles per k), bp a 4-column
// strip (k-major, 4 doubles per k), dst a row-major tile with stride 4
// (implemented in gemm_arm64.s).
//
//go:noescape
func microNEON8x4Asm(kc int, ap, bp, dst *float64)

// dot4NEON is the dot-block kernel body: s_j = a·b_j over k elements, k a
// positive multiple of 4 (implemented in gemm_arm64.s).
//
//go:noescape
func dot4NEON(k int, a, b0, b1, b2, b3 *float64) (s0, s1, s2, s3 float64)

// axpy4NEON is the broadcast-axpy kernel body (see axpyFunc) over n
// columns, n a positive multiple of 4 (implemented in gemm_arm64.s).
//
//go:noescape
func axpy4NEON(rows, n, k int, a *float64, rsA, csA int, b *float64, ldb int, c *float64, ldc int, acc bool)

func dotNEON(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	return dotAsm(dot4NEON, 4, a, b0, b1, b2, b3)
}

// axpyNEON runs the assembly body over the widest multiple of its strip
// width and the remaining columns through the fused tail.
func axpyNEON(rows, n, k int, a []float64, rsA, csA int, b []float64, ldb int, c []float64, ldc int, acc bool) {
	nv := n &^ 3
	if nv > 0 {
		axpy4NEON(rows, nv, k, &a[0], rsA, csA, &b[0], ldb, &c[0], ldc, acc)
	}
	axpyTailFMA(rows, nv, n, k, a, rsA, csA, b, ldb, c, ldc, acc)
}

func microNEON(kc int, ap, bp []float64, tile *[maxMR * maxNR]float64) {
	microNEON8x4Asm(kc, &ap[0], &bp[0], &tile[0])
}

// archKernels returns the NEON kernel. Advanced SIMD (NEON) with
// double-precision FMLA is architecturally mandatory on AArch64, so no
// runtime feature probe is needed — the kernel is gated only by the
// purego build tag.
func archKernels() []*kernelCfg {
	return []*kernelCfg{{name: "neon-8x4", mr: 8, nr: 4, micro: microNEON, dot: dotNEON, axpy: axpyNEON}}
}

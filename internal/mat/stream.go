package mat

import (
	"fmt"
	"math"
	"sync"
)

// Packing-free streaming kernels for the tall-skinny products of the
// compact-WY QR and its apply. The packed GEMM in gemm.go copies every
// operand element into a micro-tile-ordered panel and then uses it for
// only nr output columns; when one dimension of the product is 8–32 and
// another is thousands long, that copy costs more than the multiply.
// The two kernels here read their operands where they lie:
//
//   - dot-block: C (small) = A·Bᵀ, both operands' rows contiguous and long
//     in k. Each call of a kernelCfg's dot function takes one row of A
//     against four rows of B, so every A load feeds four FMAs.
//   - broadcast-axpy: C += A·B with small k, long contiguous rows of B and
//     C. A is read as scalars at arbitrary row and column strides, so a
//     transposed A (Yᵀ in the QR's apply) needs no copy either.
//
// Both are deterministic per output element: an element's value depends
// only on k and its own operand rows, never on how many rows one call
// covers or where a fan-out split the rows. Broadcast-axpy computes every
// element as the fused chain c ← fma(a_kk, b_kk, c) in k order, in the
// assembly and in the math.FMA column tail alike; a dot kernel sums fixed
// vector lanes, reduces them by a fixed tree and finishes the k tail in
// order, whichever of a call's four B rows the element sits in.

// axpyMaxK is the largest inner dimension the broadcast-axpy route takes:
// with k ≤ 32 the k×16 strip of B a tile reads stays in L1 while every row
// of C streams through once. Above it the packed path's register blocking
// pays for its packing.
const axpyMaxK = 32

// dotKC is the k chunk of the dot-block route: four B rows of dotKC
// doubles (32 KiB) stay in L1 while the A rows stream through. On the
// Gram product of the 4096×32 QR (Xeon with AVX-512, one pinned core)
// chunks of 256/512/768/1024/2048 doubles took 68/61/59/59/99 µs and no
// chunking 93 µs.
const dotKC = 1024

// streamRowBlock is the row granularity the streaming routes fan out
// across the worker pool in; splits only ever fall between output rows.
const streamRowBlock = 256

// dotFunc returns the four dot products a·b0, a·b1, a·b2, a·b3 over
// len(a) elements; every b must hold at least len(a).
type dotFunc func(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64)

// dot4Body is an assembly dot body: s_j = a·b_j over k elements, k a
// positive multiple of the body's step.
type dot4Body func(k int, a, b0, b1, b2, b3 *float64) (s0, s1, s2, s3 float64)

// axpyFunc computes C[i, 0:n] += Σ_kk A[i, kk]·B[kk, 0:n] for i < rows,
// kk < k, with A[i, kk] = a[i*rsA+kk*csA], B[kk, j] = b[kk*ldb+j] and
// C[i, j] = c[i*ldc+j]; with acc false every element starts from +0
// instead of its current value, so C is overwritten without a zeroing
// pass. Callers guarantee rows, n, k > 0 and in-bounds operands (the
// assembly bodies do not check).
type axpyFunc func(rows, n, k int, a []float64, rsA, csA int, b []float64, ldb int, c []float64, ldc int, acc bool)

// dotGo is the portable dot kernel: one accumulator per B row.
func dotGo(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
	for i, v := range a {
		s0 += v * b0[i]
		s1 += v * b1[i]
		s2 += v * b2[i]
		s3 += v * b3[i]
	}
	return
}

// dotAsm is a dot kernel over an assembly body summing whole steps of
// step elements: the body covers the longest whole-step prefix of k and
// fused multiply-adds finish the tail.
func dotAsm(body dot4Body, step int, a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	k := len(a)
	b0, b1, b2, b3 = b0[:k], b1[:k], b2[:k], b3[:k]
	kv := k - k%step
	if kv > 0 {
		s0, s1, s2, s3 = body(kv, &a[0], &b0[0], &b1[0], &b2[0], &b3[0])
	}
	return dotTailFMA(kv, a, b0, b1, b2, b3, s0, s1, s2, s3)
}

// axpyGo is the portable broadcast-axpy kernel: row by row, one scaled B
// row added into the C row per k.
func axpyGo(rows, n, k int, a []float64, rsA, csA int, b []float64, ldb int, c []float64, ldc int, acc bool) {
	for i := 0; i < rows; i++ {
		crow := c[i*ldc : i*ldc+n]
		if !acc {
			zeroFloats(crow)
		}
		for kk := 0; kk < k; kk++ {
			av := a[i*rsA+kk*csA]
			brow := b[kk*ldb : kk*ldb+n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// dotTailFMA finishes the four dot products over a[i0:] with fused
// multiply-adds in order, after an assembly body summed a[:i0].
func dotTailFMA(i0 int, a, b0, b1, b2, b3 []float64, s0, s1, s2, s3 float64) (float64, float64, float64, float64) {
	for i := i0; i < len(a); i++ {
		v := a[i]
		s0 = math.FMA(v, b0[i], s0)
		s1 = math.FMA(v, b1[i], s1)
		s2 = math.FMA(v, b2[i], s2)
		s3 = math.FMA(v, b3[i], s3)
	}
	return s0, s1, s2, s3
}

// axpyTailFMA is the broadcast-axpy over columns [j0, n) with fused
// multiply-adds in k order, the same per-element chain the assembly runs
// on the columns before j0.
func axpyTailFMA(rows, j0, n, k int, a []float64, rsA, csA int, b []float64, ldb int, c []float64, ldc int, acc bool) {
	if j0 >= n {
		return
	}
	for i := 0; i < rows; i++ {
		crow := c[i*ldc+j0 : i*ldc+n]
		if !acc {
			zeroFloats(crow)
		}
		for kk := 0; kk < k; kk++ {
			av := a[i*rsA+kk*csA]
			brow := b[kk*ldb+j0 : kk*ldb+n]
			for j, bv := range brow {
				crow[j] = math.FMA(av, bv, crow[j])
			}
		}
	}
}

// dotRows sets (acc false) or adds into C[i, 0:n], i in [r0, r1), the dot
// products of row i of A with rows 0..n−1 of B over k elements: A[i, :] =
// a[i*lda:][:k], B[j, :] = b[j*ldb:][:k], C[i, j] = c[i*ldc+j]. B rows go
// four per kernel call; a short last group repeats its final row and
// drops the copies' results. The k range is walked in dotKC-element
// chunks, each group's B chunk staying in L1 while every A row streams
// past it; an element is the ordered sum of its chunks' dot products.
func dotRows(dot dotFunc, r0, r1, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, acc bool) {
	for j := 0; j < n; j += 4 {
		j0, j1, j2, j3 := j, min(j+1, n-1), min(j+2, n-1), min(j+3, n-1)
		w := min(4, n-j)
		for k0 := 0; k0 < k; k0 += dotKC {
			kc := min(dotKC, k-k0)
			b0 := b[j0*ldb+k0 : j0*ldb+k0+kc]
			b1 := b[j1*ldb+k0 : j1*ldb+k0+kc]
			b2 := b[j2*ldb+k0 : j2*ldb+k0+kc]
			b3 := b[j3*ldb+k0 : j3*ldb+k0+kc]
			add := acc || k0 > 0
			for i := r0; i < r1; i++ {
				s0, s1, s2, s3 := dot(a[i*lda+k0:i*lda+k0+kc], b0, b1, b2, b3)
				s := [4]float64{s0, s1, s2, s3}
				dst := c[i*ldc+j : i*ldc+j+w]
				if add {
					for q := range dst {
						dst[q] += s[q]
					}
				} else {
					copy(dst, s[:])
				}
			}
		}
	}
}

// DotBlock computes the m×n block C = A·Bᵀ of dot products over k
// elements, A[i, :] = a[i*lda:][:k], B[j, :] = b[j*ldb:][:k] and C[i, j] =
// c[i*ldc+j], through the process kernel's packing-free dot kernel. It is
// the strided entry point for callers that hold rows of a larger buffer
// (the QR's in-panel reflector application); C must not overlap A or B.
func DotBlock(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int) {
	if m == 0 || n == 0 {
		return
	}
	checkStrided("DotBlock", len(a), m, k, lda, 1)
	checkStrided("DotBlock", len(b), n, k, ldb, 1)
	checkStrided("DotBlock", len(c), m, n, ldc, 1)
	if k == 0 { // empty sums: dotRows would leave C untouched
		for i := 0; i < m; i++ {
			clear(c[i*ldc : i*ldc+n])
		}
		return
	}
	dotRows(activeKern.dot, 0, m, n, k, a, lda, b, ldb, c, ldc, false)
}

// AxpyBlock computes the m×n update C += A·B over k terms, with A[i, kk] =
// a[i*rsA+kk*csA] (any strides, so a transposed A needs no copy), B[kk, j]
// = b[kk*ldb+j] and C[i, j] = c[i*ldc+j], through the process kernel's
// packing-free broadcast-axpy kernel. Every element is accumulated in k
// order from its current value. C must not overlap A or B.
func AxpyBlock(c []float64, ldc int, a []float64, rsA, csA int, b []float64, ldb int, m, n, k int) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	checkStrided("AxpyBlock", len(a), m, k, rsA, csA)
	checkStrided("AxpyBlock", len(b), k, n, ldb, 1)
	checkStrided("AxpyBlock", len(c), m, n, ldc, 1)
	activeKern.axpy(m, n, k, a, rsA, csA, b, ldb, c, ldc, true)
}

// checkStrided panics unless a buffer of length l holds every element
// (i, j), i < r, j < c, at offset i*rs+j*cs. The assembly kernels read
// through raw pointers, so the bounds are checked here once per call.
func checkStrided(op string, l, r, c, rs, cs int) {
	if r == 0 || c == 0 {
		return
	}
	if rs < 0 || cs < 0 || (r-1)*rs+(c-1)*cs >= l {
		panic(fmt.Sprintf("mat: %s operand of %d elements too short for %dx%d at strides (%d, %d)",
			op, l, r, c, rs, cs))
	}
}

// streamDot routes the product out (+)= a·bᵀ (b long in k) through the
// dot kernel, fanning row blocks out across the pool when large.
func streamDot(out, a, b *Dense, acc bool) {
	t := gemmTask{route: routeDot, out: out, a: a, b: b, kern: activeKern, acc: acc}
	t.fanRows(out.rows * out.cols * a.cols)
}

// streamAxpy routes the product out (+)= op(a)·b (k ≤ axpyMaxK) through
// the broadcast-axpy kernel, fanning row blocks out across the pool when
// large.
func streamAxpy(out, a, b *Dense, transA, acc bool) {
	t := gemmTask{route: routeAxpy, out: out, a: a, b: b, kern: activeKern, transA: transA, acc: acc}
	t.fanRows(out.rows * out.cols * b.rows)
}

// runStream computes output rows [ic, ic+mc) of a streaming-route task.
func (t *gemmTask) runStream() {
	out, a, b := t.out, t.a, t.b
	n := out.cols
	if t.route == routeDot {
		k := a.cols
		dotRows(t.kern.dot, t.ic, t.ic+t.mc, n, k, a.data, k, b.data, k, out.data, n, t.acc)
		return
	}
	k := b.rows
	rsA, csA := a.cols, 1
	if t.transA {
		rsA, csA = 1, a.cols
	}
	t.kern.axpy(t.mc, n, k, a.data[t.ic*rsA:], rsA, csA, b.data, n, out.data[t.ic*n:], n, t.acc)
}

// fanRows runs a streaming-route task over all output rows: inline for
// small products and single-CPU processes, otherwise as streamRowBlock-row
// tasks on the persistent pool.
func (t *gemmTask) fanRows(flops int) {
	kernelPool.once.Do(startKernelPool)
	m := t.out.rows
	if kernelPool.workers < 2 || flops < sel.ParallelFlops || m <= streamRowBlock {
		t.ic, t.mc = 0, m
		t.runStream()
		return
	}
	wg := waitGroupPool.Get().(*sync.WaitGroup)
	t.wg = wg
	for ic := 0; ic < m; ic += streamRowBlock {
		wg.Add(1)
		t.ic, t.mc = ic, min(streamRowBlock, m-ic)
		kernelPool.tasks <- *t
	}
	wg.Wait()
	waitGroupPool.Put(wg)
}

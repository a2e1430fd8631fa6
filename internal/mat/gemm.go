package mat

// Blocked, packed GEMM in the BLIS/GotoBLAS style. The operand panels are
// copied ("packed") into contiguous, micro-tile-ordered buffers sized for
// the cache hierarchy, and the innermost computation is an mr×nr register
// micro-kernel selected per shape from the kernels the CPU supports
// (kernel.go): AVX-512 and AVX2/FMA assembly on amd64, NEON assembly on
// arm64, an unrolled pure-Go strip kernel everywhere. Both transposed
// variants are handled at packing time, so a single macro/micro kernel
// serves Mul, MulTransA and MulTransB. Large products split their A-panel
// (row) blocks across the persistent worker pool in pool.go; batches of
// products sharing a right-hand side go through batch.go, which packs each
// B panel once for the whole batch.
//
// Loop structure (jc → pc → ic → ir → jr), with C accumulated across pc:
//
//	for jc over columns of C, step nc:          B panel → L3
//	  for pc over the inner dimension, step kc: pack B(kc×nc)
//	    for ic over rows of C, step mc:         pack A(mc×kc) → L2
//	      for ir over mc, step mr:              A micro-panel
//	        for jr over nc, step nr:            mr×nr register tile
const (
	// kcBlock × nr doubles is the B micro-panel the inner loop streams
	// from L1; mcBlock × kcBlock doubles (256 KiB) is the packed A panel
	// that should stay L2-resident.
	kcBlock = 256
	mcBlock = 128
	ncBlock = 512
)

// gemm computes out = op(a)·op(b), overwriting out. op is the identity or
// the transpose according to transA/transB. out must not alias a or b.
func gemm(out, a, b *Dense, transA, transB bool) {
	zeroFloats(out.data)
	gemmAcc(out, a, b, transA, transB)
}

// gemmAcc computes out += op(a)·op(b): both routes below only ever add
// into out, so gemm is this after a zeroing pass.
func gemmAcc(out, a, b *Dense, transA, transB bool) {
	m, n := out.rows, out.cols
	k := a.cols
	if transA {
		k = a.rows
	}
	if m == 0 || n == 0 || k == 0 {
		return
	}
	if m*n*k <= sel.SmallFlops {
		gemmSmall(out, a, b, transA, transB)
		return
	}
	gemmBlocked(out, a, b, transA, transB)
}

// gemmBlocked is the packed path, taken unconditionally: BlockedMulInto
// (the tuning entry point) and gemm (above the naive cutoff) both land
// here.
func gemmBlocked(out, a, b *Dense, transA, transB bool) {
	n := out.cols
	k := a.cols
	if transA {
		k = a.rows
	}
	kern := kernFor(n)

	bbuf := getPackBuf()
	defer putPackBuf(bbuf)
	abuf := getPackBuf()
	defer putPackBuf(abuf)

	for jc := 0; jc < n; jc += ncBlock {
		nc := min(ncBlock, n-jc)
		for pc := 0; pc < k; pc += kcBlock {
			kc := min(kcBlock, k-pc)
			bp := bbuf.grow(roundUp(nc, kern.nr) * kc)
			packB(bp, kern.nr, b, pc, kc, jc, nc, transB)
			dispatchRows(out, a, kern, bp, pc, kc, jc, nc, transA, abuf)
		}
	}
}

// BlockedMulInto computes dst = a*b through the packed micro-kernel path
// regardless of the naive-loop cutoff. It is the tuning and testing entry
// point: cmd/parsvd-benchtune measures the packed path against the naive
// reference with it to locate the SmallFlops crossover, and the edge-tile
// tests drive sub-cutoff shapes through the blocked code with it.
func BlockedMulInto(dst, a, b *Dense) {
	if a.cols != b.rows {
		panic(dimPanic("Mul", a, b))
	}
	checkDims("BlockedMulInto", dst, a.rows, b.cols)
	if dst.rows == 0 || dst.cols == 0 {
		return
	}
	zeroFloats(dst.data)
	if a.cols == 0 {
		return
	}
	gemmBlocked(dst, a, b, false, false)
}

// RefMulInto computes dst = a*b with the naive i-k-j reference loop,
// unconditionally. It is the ground truth the kernel parity suite and
// cmd/parsvd-benchtune compare every micro-kernel path against.
func RefMulInto(dst, a, b *Dense) {
	if a.cols != b.rows {
		panic(dimPanic("Mul", a, b))
	}
	checkDims("RefMulInto", dst, a.rows, b.cols)
	zeroFloats(dst.data)
	gemmSmall(dst, a, b, false, false)
}

// gemmSmall is the naive i-k-j product used when the operands are too small
// to amortize packing.
func gemmSmall(out, a, b *Dense, transA, transB bool) {
	m, n := out.rows, out.cols
	k := a.cols
	if transA {
		k = a.rows
	}
	for i := 0; i < m; i++ {
		orow := out.data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			var av float64
			if transA {
				av = a.data[p*a.cols+i]
			} else {
				av = a.data[i*a.cols+p]
			}
			if av == 0 {
				continue
			}
			if transB {
				for j := 0; j < n; j++ {
					orow[j] += av * b.data[j*b.cols+p]
				}
			} else {
				brow := b.data[p*b.cols : p*b.cols+n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	}
}

// packA copies the mc×kc block of op(a) starting at row ic, column pc into
// ap, grouped in mr-row strips stored k-major: ap[strip*kc*mr + k*mr + r].
// Rows beyond mc are zero-padded so the micro-kernel never branches on m.
func packA(ap []float64, mr int, a *Dense, ic, mc, pc, kc int, transA bool) {
	lda := a.cols
	for ir := 0; ir < mc; ir += mr {
		dst := ap[(ir/mr)*kc*mr : (ir/mr+1)*kc*mr]
		rows := min(mr, mc-ir)
		if transA {
			// op(a)[ic+ir+r, pc+k] = a[pc+k, ic+ir+r]: each k reads one
			// contiguous run of the strip's rows. Walking r innermost keeps
			// every source line touched once even when lda is a power of
			// two, where walking k innermost would map the whole strip onto
			// one cache set.
			for kk := 0; kk < kc; kk++ {
				src := a.data[(pc+kk)*lda+ic+ir : (pc+kk)*lda+ic+ir+rows]
				copy(dst[kk*mr:kk*mr+rows], src)
			}
		} else if mr == 8 && rows == 8 {
			// Full 8-row strip: interleave eight row streams so every
			// store is part of one contiguous 8-wide run.
			base := (ic+ir)*lda + pc
			r0 := a.data[base : base+kc]
			r1 := a.data[base+lda : base+lda+kc]
			r2 := a.data[base+2*lda : base+2*lda+kc]
			r3 := a.data[base+3*lda : base+3*lda+kc]
			r4 := a.data[base+4*lda : base+4*lda+kc]
			r5 := a.data[base+5*lda : base+5*lda+kc]
			r6 := a.data[base+6*lda : base+6*lda+kc]
			r7 := a.data[base+7*lda : base+7*lda+kc]
			for kk := range r0 {
				d := dst[kk*8 : kk*8+8 : kk*8+8]
				d[0], d[1], d[2], d[3] = r0[kk], r1[kk], r2[kk], r3[kk]
				d[4], d[5], d[6], d[7] = r4[kk], r5[kk], r6[kk], r7[kk]
			}
		} else {
			for r := 0; r < rows; r++ {
				src := a.data[(ic+ir+r)*lda+pc : (ic+ir+r)*lda+pc+kc]
				for kk, v := range src {
					dst[kk*mr+r] = v
				}
			}
		}
		for r := rows; r < mr; r++ {
			for kk := 0; kk < kc; kk++ {
				dst[kk*mr+r] = 0
			}
		}
	}
}

// packB copies the kc×nc block of op(b) starting at row pc, column jc into
// bp, grouped in nr-column strips stored k-major: bp[strip*kc*nr + k*nr + c].
// Columns beyond nc are zero-padded.
func packB(bp []float64, nr int, b *Dense, pc, kc, jc, nc int, transB bool) {
	ldb := b.cols
	for jr := 0; jr < nc; jr += nr {
		dst := bp[(jr/nr)*kc*nr : (jr/nr+1)*kc*nr]
		cols := min(nr, nc-jr)
		if !transB && cols == nr && nr == 4 {
			for kk := 0; kk < kc; kk++ {
				src := b.data[(pc+kk)*ldb+jc+jr:]
				d := dst[kk*nr : kk*nr+nr]
				d[0], d[1], d[2], d[3] = src[0], src[1], src[2], src[3]
			}
			continue
		}
		if !transB && cols == nr {
			for kk := 0; kk < kc; kk++ {
				copy(dst[kk*nr:kk*nr+nr], b.data[(pc+kk)*ldb+jc+jr:(pc+kk)*ldb+jc+jr+nr])
			}
			continue
		}
		for c := 0; c < cols; c++ {
			if transB {
				// op(b)[pc+k, jc+jr+c] = b[jc+jr+c, pc+k]: contiguous read.
				src := b.data[(jc+jr+c)*ldb+pc : (jc+jr+c)*ldb+pc+kc]
				for kk, v := range src {
					dst[kk*nr+c] = v
				}
			} else {
				idx := pc*ldb + (jc + jr + c)
				for kk := 0; kk < kc; kk++ {
					dst[kk*nr+c] = b.data[idx]
					idx += ldb
				}
			}
		}
		for c := cols; c < nr; c++ {
			for kk := 0; kk < kc; kk++ {
				dst[kk*nr+c] = 0
			}
		}
	}
}

// macroKernel accumulates the packed panels into C: the jr loop walks B
// micro-panels (L1-resident across the ir loop), the ir loop walks A strips.
// Each micro-kernel invocation computes one mr×nr product tile into the
// caller's reused tile buffer, which is then masked-added into C — the same
// write-back path for every assembly kernel and the portable one. Tile
// geometry comes from the dispatched kernelCfg, never from package constants.
func macroKernel(out *Dense, kern *kernelCfg, ap, bp []float64, ic, mc, jc, nc, kc int, tile *[maxMR * maxNR]float64) {
	mr, nr := kern.mr, kern.nr
	for ir := 0; ir < mc; ir += mr {
		app := ap[(ir/mr)*kc*mr : (ir/mr+1)*kc*mr]
		rows := min(mr, mc-ir)
		for jr := 0; jr < nc; jr += nr {
			bpp := bp[(jr/nr)*kc*nr : (jr/nr+1)*kc*nr]
			cols := min(nr, nc-jr)
			kern.micro(kc, app, bpp, tile)
			addTile(out, tile, nr, ic+ir, jc+jr, rows, cols)
		}
	}
}

// addTile accumulates the rows×cols valid region of a computed micro-tile
// (row-major with stride nr) into C at (i0, j0).
func addTile(out *Dense, tile *[maxMR * maxNR]float64, nr, i0, j0, rows, cols int) {
	ldc := out.cols
	if cols == 4 && nr == 4 {
		for i := 0; i < rows; i++ {
			c := out.data[(i0+i)*ldc+j0 : (i0+i)*ldc+j0+4 : (i0+i)*ldc+j0+4]
			c[0] += tile[i*4]
			c[1] += tile[i*4+1]
			c[2] += tile[i*4+2]
			c[3] += tile[i*4+3]
		}
		return
	}
	if cols == 8 && nr == 8 {
		for i := 0; i < rows; i++ {
			c := out.data[(i0+i)*ldc+j0 : (i0+i)*ldc+j0+8 : (i0+i)*ldc+j0+8]
			t := tile[i*8 : i*8+8 : i*8+8]
			c[0] += t[0]
			c[1] += t[1]
			c[2] += t[2]
			c[3] += t[3]
			c[4] += t[4]
			c[5] += t[5]
			c[6] += t[6]
			c[7] += t[7]
		}
		return
	}
	for i := 0; i < rows; i++ {
		crow := out.data[(i0+i)*ldc+j0 : (i0+i)*ldc+j0+cols]
		for j := 0; j < cols; j++ {
			crow[j] += tile[i*nr+j]
		}
	}
}

func roundUp(x, to int) int { return (x + to - 1) / to * to }

func zeroFloats(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

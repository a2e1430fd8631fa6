package mat

// Micro-kernel dispatch. The blocked GEMM in gemm.go is generic over the
// register micro-tile: every ISA-specific kernel is described by a
// kernelCfg (tile geometry plus the tile-product function), the per-arch
// files (gemm_amd64.go, gemm_arm64.go, gemm_noasm.go) contribute the
// kernels the CPU supports, and packing, workspace sizing and the macro
// kernel all derive their geometry from the kernelCfg actually dispatched
// — nothing outside this file may assume an 8×4 tile.
//
// Selection happens at three levels:
//
//  1. Process level: the best kernel the build and CPU offer wins
//     (AVX-512 > AVX2 > NEON > pure Go). The purego build tag compiles
//     the assembly out, leaving only the pure-Go reference (the build
//     CI's fallback-parity job tests).
//  2. Shape level: per product, kernFor consults the generated selection
//     table (seltab_gen.go, regenerated by cmd/parsvd-benchtune) — very
//     skinny right-hand sides fall back from a wide tile to the narrow
//     one, tiny products route to the naive loop, and the parallel and
//     batched fan-out thresholds come from the same table.
//  3. Call level: worker-pool tasks carry their kernelCfg by pointer, so
//     a product in flight never sees a torn kernel switch.

const (
	// maxMR×maxNR bounds the register tile of any kernel; the stack tile
	// buffer in macroKernel and the batched path is sized for it.
	maxMR = 16
	maxNR = 8
)

// microFunc computes one mr×nr product tile over kc packed k-steps:
// ap is an mr-row strip (k-major, mr doubles per k), bp an nr-column strip
// (k-major, nr doubles per k). The tile is written row-major with stride
// nr into the first mr*nr doubles of tile.
type microFunc func(kc int, ap, bp []float64, tile *[maxMR * maxNR]float64)

// kernelCfg describes one register micro-kernel.
type kernelCfg struct {
	name   string
	mr, nr int
	micro  microFunc
	// narrow, when non-nil, is the kernel shapes with few output columns
	// fall back to: a wide tile (nr = 8) wastes up to nr−1 masked columns
	// per edge strip, which dominates for skinny right-hand sides.
	narrow *kernelCfg
	// dot and axpy are the same ISA's packing-free streaming kernels
	// (stream.go): they take the tall-skinny products the packed path
	// would spend more time packing than multiplying.
	dot  dotFunc
	axpy axpyFunc
}

// kernGoRef is the portable reference kernel, available on every platform
// and build: the pure-Go 8×4 strip kernel the parity suite pins every
// assembly path against.
var kernGoRef = &kernelCfg{name: "go-8x4", mr: 8, nr: 4, micro: microGo8x4, dot: dotGo, axpy: axpyGo}

var (
	// availKernels is every kernel usable on this CPU, best-first, always
	// ending in kernGoRef.
	availKernels []*kernelCfg
	// activeKern is the process-level choice among availKernels.
	activeKern *kernelCfg
	// sel holds the per-shape thresholds for activeKern, from the
	// generated selection table.
	sel selParams
)

func init() {
	availKernels = append(archKernels(), kernGoRef)
	activeKern = availKernels[0]
	sel = selFor(activeKern.name)
}

// kernFor returns the kernel for a product with n output columns,
// applying the selection table's skinny fallback.
func kernFor(n int) *kernelCfg {
	k := activeKern
	if k.narrow != nil && n < sel.SkinnyN {
		return k.narrow
	}
	return k
}

// KernelName reports the name of the process-level micro-kernel
// ("avx512-8x8", "avx2-8x4", "neon-8x4" or "go-8x4"), for logging,
// bench-trajectory metadata and the dispatch tests.
func KernelName() string { return activeKern.name }

// AvailableKernels lists the kernels usable on this CPU, best-first. The
// pure-Go reference is always last.
func AvailableKernels() []string {
	names := make([]string, len(availKernels))
	for i, k := range availKernels {
		names[i] = k.name
	}
	return names
}

// ForceKernel selects the named micro-kernel for the whole process and
// returns a restore function. It is a tuning and testing hook (the parity
// suite and cmd/parsvd-benchtune drive every available kernel through it);
// it is not safe to call concurrently with running products.
func ForceKernel(name string) (restore func(), ok bool) {
	for _, k := range availKernels {
		if k.name != name {
			continue
		}
		prevKern, prevSel := activeKern, sel
		activeKern = k
		sel = selFor(k.name)
		return func() { activeKern, sel = prevKern, prevSel }, true
	}
	return nil, false
}

// KernelHasNarrow reports whether the named kernel declares a narrow-tile
// sibling, so cmd/parsvd-benchtune knows which kernels need a SkinnyN
// measurement.
func KernelHasNarrow(name string) bool {
	for _, k := range availKernels {
		if k.name == name {
			return k.narrow != nil
		}
	}
	return false
}

// SetSkinnyN overrides the active selection entry's narrow-fallback
// threshold and returns a restore function. It is a tuning hook: benchtune
// pins it to 0 (never fall back) or a huge value (always fall back) to time
// the wide and narrow tiles against each other on the same shapes. Not safe
// to call concurrently with running products.
func SetSkinnyN(n int) (restore func()) {
	prev := sel.SkinnyN
	sel.SkinnyN = n
	return func() { sel.SkinnyN = prev }
}

// SetDotMaxMN overrides the active selection entry's dot-block output
// limit and returns a restore function. It is a tuning hook: benchtune
// pins it to 0 (never take the dot-block route) or a huge value (always)
// to time the route against the packed path on the same shapes. Not safe
// to call concurrently with running products.
func SetDotMaxMN(n int) (restore func()) {
	prev := sel.DotMaxMN
	sel.DotMaxMN = n
	return func() { sel.DotMaxMN = prev }
}

// microGo8x4 is the portable micro-kernel: the 8×4 strip is covered as two
// register-resident 4×4 halves so the accumulators stay out of memory.
func microGo8x4(kc int, ap, bp []float64, tile *[maxMR * maxNR]float64) {
	const mr, nr = 8, 4
	for half := 0; half < 2; half++ {
		var c00, c01, c02, c03 float64
		var c10, c11, c12, c13 float64
		var c20, c21, c22, c23 float64
		var c30, c31, c32, c33 float64
		ai := half * 4
		bi := 0
		for k := 0; k < kc; k++ {
			a0, a1, a2, a3 := ap[ai], ap[ai+1], ap[ai+2], ap[ai+3]
			b0, b1, b2, b3 := bp[bi], bp[bi+1], bp[bi+2], bp[bi+3]
			c00 += a0 * b0
			c01 += a0 * b1
			c02 += a0 * b2
			c03 += a0 * b3
			c10 += a1 * b0
			c11 += a1 * b1
			c12 += a1 * b2
			c13 += a1 * b3
			c20 += a2 * b0
			c21 += a2 * b1
			c22 += a2 * b2
			c23 += a2 * b3
			c30 += a3 * b0
			c31 += a3 * b1
			c32 += a3 * b2
			c33 += a3 * b3
			ai += mr
			bi += nr
		}
		o := half * 4 * nr
		tile[o+0], tile[o+1], tile[o+2], tile[o+3] = c00, c01, c02, c03
		tile[o+4], tile[o+5], tile[o+6], tile[o+7] = c10, c11, c12, c13
		tile[o+8], tile[o+9], tile[o+10], tile[o+11] = c20, c21, c22, c23
		tile[o+12], tile[o+13], tile[o+14], tile[o+15] = c30, c31, c32, c33
	}
}

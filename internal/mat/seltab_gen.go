// Code generated by parsvd-benchtune. DO NOT EDIT.
//
// Per-shape kernel selection thresholds, measured on the machine named in
// the header comment of each entry. Regenerate with `make benchtune`
// (which runs cmd/parsvd-benchtune and rewrites this file); entries for
// ISAs the tuning host cannot execute keep conservative defaults.

package mat

// selParams are the per-shape path-selection thresholds for one
// micro-kernel. All flop counts are m·k·n products.
type selParams struct {
	// SmallFlops: products at or below this route to the naive i-k-j
	// loop, where packing overhead outweighs the micro-kernel win.
	SmallFlops int
	// SkinnyN: products with fewer than this many output columns fall
	// back from a wide tile to the kernel's narrow sibling (no-op for
	// kernels without one).
	SkinnyN int
	// ParallelFlops: single products above this fan their A-panel row
	// blocks out across the worker pool.
	ParallelFlops int
	// PanelRows is the row granularity PanelBatch splits tall mode-update
	// products into before feeding them to the batched path.
	PanelRows int
	// BatchSpanFlops: batched calls whose total flops (summed across the
	// batch) exceed this fan items out across the worker pool.
	BatchSpanFlops int
	// DotMaxMN: a·bᵀ products (inner dimension above the broadcast-axpy
	// limit) with at most this many output elements take the
	// packing-free dot-block kernel instead of the packed path.
	DotMaxMN int
}

// defaultSelParams is used for kernels without a measured table entry.
var defaultSelParams = selParams{
	SmallFlops:     16 * 16 * 16,
	SkinnyN:        6,
	ParallelFlops:  1 << 20,
	PanelRows:      256,
	BatchSpanFlops: 1 << 20,
	DotMaxMN:       1024,
}

// selTables maps kernel name → measured thresholds.
var selTables = map[string]selParams{
	// measured linux/amd64, 2026-08-08; DotMaxMN 2026-10-17
	"avx512-8x8": {SmallFlops: 216, SkinnyN: 2, ParallelFlops: 1048576, PanelRows: 512, BatchSpanFlops: 1048576, DotMaxMN: 4096},
	// measured linux/amd64, 2026-08-08; DotMaxMN 2026-10-17
	"avx2-8x4": {SmallFlops: 216, SkinnyN: 6, ParallelFlops: 1048576, PanelRows: 768, BatchSpanFlops: 1048576, DotMaxMN: 2048},
	// Not measurable on the tuning host; conservative defaults.
	"neon-8x4": defaultSelParams,
	// measured linux/amd64, 2026-08-08; DotMaxMN 2026-10-17
	"go-8x4": {SmallFlops: 524288, SkinnyN: 6, ParallelFlops: 1048576, PanelRows: 512, BatchSpanFlops: 1048576, DotMaxMN: 32768},
}

// selFor returns the selection thresholds for the named kernel.
func selFor(name string) selParams {
	if p, ok := selTables[name]; ok {
		return p
	}
	return defaultSelParams
}

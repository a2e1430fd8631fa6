// Command parsvd-benchtune measures the per-shape kernel-selection
// thresholds on the host CPU and regenerates internal/mat/seltab_gen.go.
//
// For every micro-kernel the host can execute it measures:
//
//   - SmallFlops: the naive-loop/blocked-path crossover, by timing
//     RefMulInto against BlockedMulInto on growing cubes;
//   - SkinnyN: the narrow-tile fallback threshold (kernels with a narrow
//     sibling only), by timing tall-skinny products with the fallback
//     pinned off and pinned on;
//   - PanelRows: the PanelBatch split granularity, by timing a tall
//     mode-update product split at each candidate row count;
//   - DotMaxMN: the largest a·bᵀ output the packing-free dot-block route
//     takes, by timing long-k products of growing output size with the
//     route pinned on and pinned off.
//
// ParallelFlops and BatchSpanFlops keep their conservative defaults: they
// gate worker-pool fan-out, which a tuning run on a saturated or
// single-CPU host cannot measure representatively.
//
// Kernels the host cannot run (e.g. neon-8x4 on an amd64 host) keep the
// defaults, clearly marked in the generated file. Usage:
//
//	go run ./cmd/parsvd-benchtune -o internal/mat/seltab_gen.go
//
// or `make benchtune` from the repository root. Commit the regenerated
// file; it is plain Go and carries its provenance in comments.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"goparsvd/internal/mat"
)

// knownKernels is every kernel name any platform can dispatch; the
// generated table carries an entry for each so cross-compiled builds never
// fall through to the hard-coded defaults silently.
var knownKernels = []string{"avx512-8x8", "avx2-8x4", "neon-8x4", "go-8x4"}

type params struct {
	SmallFlops     int
	SkinnyN        int
	ParallelFlops  int
	PanelRows      int
	BatchSpanFlops int
	DotMaxMN       int
}

var defaults = params{
	SmallFlops:     16 * 16 * 16,
	SkinnyN:        6,
	ParallelFlops:  1 << 20,
	PanelRows:      256,
	BatchSpanFlops: 1 << 20,
	DotMaxMN:       1024,
}

func main() {
	out := flag.String("o", "internal/mat/seltab_gen.go", "output file ('-' for stdout)")
	minDur := flag.Duration("mintime", 20*time.Millisecond, "minimum measurement time per point")
	flag.Parse()

	measured := map[string]params{}
	notes := map[string]string{}
	for _, name := range mat.AvailableKernels() {
		fmt.Fprintf(os.Stderr, "tuning %s ...\n", name)
		restore, ok := mat.ForceKernel(name)
		if !ok {
			continue
		}
		p := defaults
		p.SmallFlops = tuneSmallFlops(*minDur)
		if mat.KernelHasNarrow(name) {
			p.SkinnyN = tuneSkinnyN(*minDur)
		}
		p.PanelRows = tunePanelRows(*minDur)
		p.DotMaxMN = tuneDotMaxMN(*minDur, p.SmallFlops)
		restore()
		measured[name] = p
		notes[name] = fmt.Sprintf("measured %s/%s, %s",
			runtime.GOOS, runtime.GOARCH, time.Now().Format("2006-01-02"))
	}

	src := render(measured, notes)
	if *out == "-" {
		fmt.Print(src)
		return
	}
	if err := os.WriteFile(*out, []byte(src), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchtune:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}

// timeIt returns the best-of-three per-call nanoseconds of f, with each
// sample running at least minDur.
func timeIt(minDur time.Duration, f func()) float64 {
	f() // warm caches, pools and kernel workers
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		n := 1
		for {
			start := time.Now()
			for i := 0; i < n; i++ {
				f()
			}
			el := time.Since(start)
			if el >= minDur {
				per := float64(el.Nanoseconds()) / float64(n)
				if best == 0 || per < best {
					best = per
				}
				break
			}
			n *= 2
		}
	}
	return best
}

// tuneSmallFlops locates the cube size where the blocked path overtakes the
// naive loop and returns the largest naive-winning flop count.
func tuneSmallFlops(minDur time.Duration) int {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64, 96, 128}
	small := 4 * 4 * 4
	for _, s := range sizes {
		a := randomDense(s, s, rng)
		b := randomDense(s, s, rng)
		out := mat.New(s, s)
		naive := timeIt(minDur, func() { mat.RefMulInto(out, a, b) })
		blocked := timeIt(minDur, func() { mat.BlockedMulInto(out, a, b) })
		fmt.Fprintf(os.Stderr, "  small %2d^3: naive %8.0f ns  blocked %8.0f ns\n", s, naive, blocked)
		if blocked < naive {
			break
		}
		small = s * s * s
	}
	// The naive loop must never shadow the worker-pool fan-out: products
	// above ParallelFlops belong to the blocked path even if a single
	// thread would run them faster naively.
	if small > defaults.ParallelFlops/2 {
		small = defaults.ParallelFlops / 2
	}
	return small
}

// tuneSkinnyN times tall-skinny products with the narrow fallback pinned
// off (wide tile) and pinned on (narrow tile) and returns the smallest n
// where the wide tile wins.
func tuneSkinnyN(minDur time.Duration) int {
	rng := rand.New(rand.NewSource(2))
	const m, k = 2048, 64
	a := randomDense(m, k, rng)
	skinny := 13 // past the sweep: narrow always won
	for n := 2; n <= 12; n++ {
		b := randomDense(k, n, rng)
		out := mat.New(m, n)
		restoreWide := mat.SetSkinnyN(0)
		wide := timeIt(minDur, func() { mat.BlockedMulInto(out, a, b) })
		restoreWide()
		restoreNarrow := mat.SetSkinnyN(1 << 30)
		narrow := timeIt(minDur, func() { mat.BlockedMulInto(out, a, b) })
		restoreNarrow()
		fmt.Fprintf(os.Stderr, "  skinny n=%2d: wide %8.0f ns  narrow %8.0f ns\n", n, wide, narrow)
		if wide <= narrow {
			skinny = n
			break
		}
	}
	return skinny
}

// tunePanelRows times a tall mode-update product split at each candidate
// panel height through the batched path and returns the fastest. Candidates
// are multiples of the mc cache block so panel splits preserve the blocked
// path's numerics.
func tunePanelRows(minDur time.Duration) int {
	rng := rand.New(rand.NewSource(3))
	const m, k, n = 8192, 64, 16
	a := randomDense(m, k, rng)
	b := randomDense(k, n, rng)
	out := mat.New(m, n)
	type cand struct {
		rows int
		ns   float64
	}
	var cands []cand
	for _, pr := range []int{128, 256, 384, 512, 768, 1024} {
		nPanels := m / pr
		dsts := make([]*mat.Dense, nPanels)
		as := make([]*mat.Dense, nPanels)
		dstHdr := make([]mat.Dense, nPanels)
		aHdr := make([]mat.Dense, nPanels)
		for p := 0; p < nPanels; p++ {
			r0, r1 := p*pr, (p+1)*pr
			if p == nPanels-1 {
				r1 = m
			}
			out.ViewRows(r0, r1, &dstHdr[p])
			a.ViewRows(r0, r1, &aHdr[p])
			dsts[p] = &dstHdr[p]
			as[p] = &aHdr[p]
		}
		ns := timeIt(minDur, func() { mat.BatchedMulInto(dsts, as, b) })
		fmt.Fprintf(os.Stderr, "  panel %4d rows: %8.0f ns\n", pr, ns)
		cands = append(cands, cand{pr, ns})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].ns < cands[j].ns })
	return cands[0].rows
}

// tuneDotMaxMN times a·bᵀ products with a long inner dimension — the
// shape of the QR's Gram and projection product — at growing output
// sizes, with the dot-block route pinned on and pinned off, and returns
// the largest output size (m·n) the dot-block route wins at; the sweep
// stops after two losses in a row. Shapes at or below smallFlops take the
// naive loop either way and are skipped.
func tuneDotMaxMN(minDur time.Duration, smallFlops int) int {
	rng := rand.New(rand.NewSource(4))
	const k = 4096
	best, losses := 0, 0
	for _, sh := range [][2]int{{8, 8}, {16, 8}, {32, 8}, {40, 8}, {64, 8}, {32, 32}, {64, 32}, {64, 64}, {128, 64}, {128, 128}, {256, 128}} {
		m, n := sh[0], sh[1]
		if m*n*k <= smallFlops {
			continue
		}
		a := randomDense(m, k, rng)
		b := randomDense(n, k, rng)
		out := mat.New(m, n)
		restoreOn := mat.SetDotMaxMN(1 << 30)
		dot := timeIt(minDur, func() { mat.MulTransBInto(out, a, b) })
		restoreOn()
		restoreOff := mat.SetDotMaxMN(0)
		packed := timeIt(minDur, func() { mat.MulTransBInto(out, a, b) })
		restoreOff()
		fmt.Fprintf(os.Stderr, "  dot %3dx%3d·k%d: dot-block %9.0f ns  packed %9.0f ns\n", m, n, k, dot, packed)
		if dot >= packed {
			if losses++; losses == 2 {
				break
			}
			continue
		}
		best, losses = m*n, 0
	}
	return best
}

func randomDense(r, c int, rng *rand.Rand) *mat.Dense {
	m := mat.New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

// render emits the seltab_gen.go source with measured entries where
// available and marked defaults elsewhere.
func render(measured map[string]params, notes map[string]string) string {
	var b strings.Builder
	b.WriteString(`// Code generated by parsvd-benchtune. DO NOT EDIT.
//
// Per-shape kernel selection thresholds, measured on the machine named in
// the header comment of each entry. Regenerate with ` + "`make benchtune`" + `
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
`)
	for _, name := range knownKernels {
		if p, ok := measured[name]; ok {
			fmt.Fprintf(&b, "\t// %s\n", notes[name])
			fmt.Fprintf(&b, "\t%q: {SmallFlops: %d, SkinnyN: %d, ParallelFlops: %d, PanelRows: %d, BatchSpanFlops: %d, DotMaxMN: %d},\n",
				name, p.SmallFlops, p.SkinnyN, p.ParallelFlops, p.PanelRows, p.BatchSpanFlops, p.DotMaxMN)
		} else {
			fmt.Fprintf(&b, "\t// Not measurable on the tuning host; conservative defaults.\n")
			fmt.Fprintf(&b, "\t%q: defaultSelParams,\n", name)
		}
	}
	b.WriteString(`}

// selFor returns the selection thresholds for the named kernel.
func selFor(name string) selParams {
	if p, ok := selTables[name]; ok {
		return p
	}
	return defaultSelParams
}
`)
	return b.String()
}

package mat

import (
	"runtime"
	"sync"
)

// The kernel worker pool: a fixed set of GOMAXPROCS goroutines started on
// first use that execute A-panel row blocks for every large product in the
// process. Replacing the old per-Mul goroutine spawning with a persistent
// pool removes the per-call spawn/teardown cost from the streaming hot path
// and lets each worker keep a private, warm packing buffer.

// gemmTask is one packed A-panel block of a blocked product. Tasks travel
// by value on the channel, so dispatching allocates nothing. Each task
// carries the kernelCfg it was dispatched with: packing-buffer geometry is
// derived from that kernel's tile constants (an AVX-512 8×8 task and an
// AVX2 8×4 task size their panels differently), and a concurrent kernel
// switch can never tear a product in flight. A task of a packing-free
// route (stream.go) covers output rows [ic, ic+mc) of its whole product
// instead, reading b directly.
type gemmTask struct {
	route          taskRoute
	out, a, b      *Dense
	kern           *kernelCfg
	bp             []float64
	ic, mc, pc, kc int
	jc, nc         int
	transA         bool
	acc            bool // streaming routes: add into out rather than overwrite
	wg             *sync.WaitGroup
}

// taskRoute tells a pool task's product path.
type taskRoute uint8

const (
	routePacked taskRoute = iota // packed A-panel block (gemm.go)
	routeDot                     // dot-block row block (stream.go)
	routeAxpy                    // broadcast-axpy row block (stream.go)
)

func (t *gemmTask) run(buf *packBuf) {
	if t.route != routePacked {
		t.runStream()
		return
	}
	ap := buf.grow(roundUp(t.mc, t.kern.mr) * t.kc)
	packA(ap, t.kern.mr, t.a, t.ic, t.mc, t.pc, t.kc, t.transA)
	macroKernel(t.out, t.kern, ap, t.bp, t.ic, t.mc, t.jc, t.nc, t.kc, &buf.tile)
}

var kernelPool struct {
	once    sync.Once
	workers int
	tasks   chan gemmTask
}

func startKernelPool() {
	kernelPool.workers = runtime.GOMAXPROCS(0)
	kernelPool.tasks = make(chan gemmTask, 8*kernelPool.workers)
	// Each worker's private buffer, warm across tasks, is allocated here,
	// and the pool starts only once every worker runs: a worker first
	// scheduled later would make its first allocations (the buffer, and
	// the runtime's wait record for its first blocking receive) inside
	// whatever runs then.
	var running sync.WaitGroup
	running.Add(kernelPool.workers)
	for w := 0; w < kernelPool.workers; w++ {
		buf := new(packBuf)
		go func() {
			running.Done()
			for t := range kernelPool.tasks {
				t.run(buf)
				t.wg.Done()
			}
		}()
	}
	running.Wait()
}

// dispatchRows runs the mc-blocked ic loop of one (jc, pc) panel pair,
// either inline (small problems, single-CPU processes) or fanned out across
// the persistent pool. The fan-out threshold comes from the dispatched
// kernel's selection-table entry.
func dispatchRows(out, a *Dense, kern *kernelCfg, bp []float64, pc, kc, jc, nc int, transA bool, inlineBuf *packBuf) {
	kernelPool.once.Do(startKernelPool)
	m := out.rows
	t := gemmTask{out: out, a: a, kern: kern, bp: bp, pc: pc, kc: kc, jc: jc, nc: nc, transA: transA}
	if kernelPool.workers < 2 || m*nc*kc < sel.ParallelFlops || m <= mcBlock {
		for ic := 0; ic < m; ic += mcBlock {
			t.ic, t.mc = ic, min(mcBlock, m-ic)
			t.run(inlineBuf)
		}
		return
	}
	wg := waitGroupPool.Get().(*sync.WaitGroup)
	t.wg = wg
	for ic := 0; ic < m; ic += mcBlock {
		wg.Add(1)
		t.ic, t.mc = ic, min(mcBlock, m-ic)
		kernelPool.tasks <- t
	}
	wg.Wait()
	waitGroupPool.Put(wg)
}

var waitGroupPool = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

// packBuf is a grow-only scratch buffer for packed operand panels. It also
// hosts the micro-tile accumulator target: the tile must live in reused
// storage because the indirect kern.micro call would otherwise force a
// stack-declared tile to escape — a heap allocation per macro-kernel call,
// which the 0 allocs/op streaming gate forbids.
type packBuf struct {
	data []float64
	tile [maxMR * maxNR]float64
}

// grow returns the first n elements of the buffer, reallocating only when
// the requested panel is larger than anything packed into it before.
func (b *packBuf) grow(n int) []float64 {
	if cap(b.data) < n {
		b.data = make([]float64, n)
	}
	return b.data[:n]
}

var packBufPool = sync.Pool{New: func() any { return new(packBuf) }}

func getPackBuf() *packBuf  { return packBufPool.Get().(*packBuf) }
func putPackBuf(b *packBuf) { packBufPool.Put(b) }

package stream

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"goparsvd/internal/testutil"
)

func BenchmarkInitialize(b *testing.B) {
	b.ReportAllocs()
	rng := testutil.NewRand(1)
	a := testutil.RandomDense(4096, 64, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		started(Options{K: 10, FF: 0.95}, a)
	}
}

func BenchmarkIncorporateDeterministic(b *testing.B) {
	b.ReportAllocs()
	rng := testutil.NewRand(2)
	first := testutil.RandomDense(4096, 64, rng)
	next := testutil.RandomDense(4096, 64, rng)
	s := started(Options{K: 10, FF: 0.95}, first)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.IncorporateData(next)
	}
}

func BenchmarkIncorporateSteadyStateAllocs(b *testing.B) {
	// Regression gate for the zero-allocation streaming hot path: after a
	// warmup update fills the iteration workspace, steady-state
	// IncorporateData calls must report 0 allocs/op — every temporary,
	// including the modes matrix, is recycled through the workspace.
	b.ReportAllocs()
	rng := testutil.NewRand(4)
	first := testutil.RandomDense(2048, 32, rng)
	next := testutil.RandomDense(2048, 32, rng)
	s := started(Options{K: 10, FF: 0.95}, first)
	s.IncorporateData(next) // warm the workspace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.IncorporateData(next)
	}
}

func BenchmarkIncorporateLowRank(b *testing.B) {
	b.ReportAllocs()
	rng := testutil.NewRand(3)
	first := testutil.RandomDense(4096, 64, rng)
	next := testutil.RandomDense(4096, 64, rng)
	s := started(Options{K: 10, FF: 0.95, LowRank: true}, first)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.IncorporateData(next)
	}
}

// BenchmarkIncorporateWorkloadShape times one warm IncorporateData at the
// fit-serial workload's shape — M = 4096 rows, K = 16 modes, B = 16
// snapshots per batch — where the QR stacks are 4096×32. Steady-state
// calls must report 0 allocs/op.
func BenchmarkIncorporateWorkloadShape(b *testing.B) {
	b.ReportAllocs()
	rng := testutil.NewRand(5)
	first := testutil.RandomDense(4096, 16, rng)
	next := testutil.RandomDense(4096, 16, rng)
	s := started(Options{K: 16, FF: 0.95}, first)
	s.IncorporateData(next) // warm the workspace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.IncorporateData(next)
	}
}

// TestIncorporateNoAllocsAcrossGC pins the zero-allocation update at the
// fit-serial shape with a garbage collection before every update. A
// sync.Pool anywhere on the path would re-pin its per-P storage after each
// collection and allocate, which a warm benchmark loop never sees.
//
// The count comes from the memory profile, sampling every allocation, and
// takes only stacks through this module's non-test code: the
// collections also allocate, on the runtime's own behalf (threads, timers,
// mark workers), and those are not the update's.
func TestIncorporateNoAllocsAcrossGC(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	rng := testutil.NewRand(6)
	first := testutil.RandomDense(4096, 16, rng)
	next := testutil.RandomDense(4096, 16, rng)
	s := started(Options{K: 16, FF: 0.95}, first)
	s.IncorporateData(next) // warm the workspace
	runtime.GC()
	before := moduleAllocs()
	for i := 0; i < 16; i++ {
		runtime.GC()
		s.IncorporateData(next)
	}
	runtime.GC() // the profile publishes a cycle's allocations at the next collection
	after := moduleAllocs()
	var sites []string
	for site, n := range after {
		if d := n - before[site]; d != 0 {
			sites = append(sites, fmt.Sprintf("%s: %d", site, d))
		}
	}
	if len(sites) != 0 {
		sort.Strings(sites)
		t.Fatalf("16 updates with a GC before each allocated, want 0 allocations:\n%s",
			strings.Join(sites, "\n"))
	}
}

// moduleAllocs returns the memory profile's cumulative allocation counts
// per allocating stack, keyed by the stack's innermost function of this
// module outside its test files, for the stacks that have one.
func moduleAllocs() map[string]int64 {
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[string]int64)
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if strings.HasPrefix(f.Function, "goparsvd/") && !strings.HasSuffix(f.File, "_test.go") {
				out[f.Function] += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return out
}

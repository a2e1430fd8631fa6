package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// The kernel parity suite: every micro-kernel this CPU can run — AVX-512,
// AVX2, NEON or the pure-Go reference — must agree with the naive i-k-j
// product on every shape class the packing and edge-masking code
// distinguishes. CI runs this file three ways: natively (assembly kernels),
// built with -tags purego (fallback-parity job) and under qemu-aarch64 (the
// arm64 job), so each ISA path is exercised by at least one job.

// parityShapes are the adversarial (m, k, n) triples: sub-tile, odd, prime,
// single-row/column, tile-exact and block-straddling.
var parityShapes = [][3]int{
	{1, 1, 1}, {1, 1, 8}, {1, 7, 1}, {7, 1, 7},
	{2, 3, 5}, {3, 4, 3}, {5, 5, 5},
	{8, 8, 8}, {16, 16, 16}, {8, 256, 8},
	{13, 17, 19}, {31, 29, 37}, {41, 43, 47}, {53, 59, 61},
	{127, 257, 63}, {129, 255, 65}, {128, 256, 9},
	{1, 300, 300}, {300, 300, 1}, {300, 1, 300},
	{997, 64, 10}, {8, 16, 513}, {3, 500, 3},
}

// TestKernelParityAllISAs forces each available kernel in turn and checks
// the packed path against RefMulInto at every parity shape, for the plain,
// transposed-A and transposed-B variants.
func TestKernelParityAllISAs(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for _, name := range AvailableKernels() {
		name := name
		t.Run(name, func(t *testing.T) {
			restore, ok := ForceKernel(name)
			if !ok {
				t.Fatalf("ForceKernel(%q) refused an advertised kernel", name)
			}
			defer restore()
			if got := KernelName(); got != name {
				t.Fatalf("KernelName() = %q after ForceKernel(%q)", got, name)
			}
			for _, sh := range parityShapes {
				m, k, n := sh[0], sh[1], sh[2]
				a := randomDense(m, k, rng)
				b := randomDense(k, n, rng)
				want := New(m, n)
				RefMulInto(want, a, b)
				tol := relTol(k, a, b)

				got := New(m, n)
				BlockedMulInto(got, a, b)
				if d := maxAbsDiff(got, want); d > tol {
					t.Errorf("%dx%dx%d: blocked diverges from reference by %g (tol %g)", m, k, n, d, tol)
				}

				// The dispatching entry points must agree too (they may
				// legitimately take the naive route below the cutoff).
				MulInto(got, a, b)
				if d := maxAbsDiff(got, want); d > tol {
					t.Errorf("%dx%dx%d: MulInto diverges by %g (tol %g)", m, k, n, d, tol)
				}
				at := a.T()
				MulTransAInto(got, at, b)
				if d := maxAbsDiff(got, want); d > tol {
					t.Errorf("%dx%dx%d: MulTransA diverges by %g (tol %g)", m, k, n, d, tol)
				}
				bt := b.T()
				MulTransBInto(got, a, bt)
				if d := maxAbsDiff(got, want); d > tol {
					t.Errorf("%dx%dx%d: MulTransB diverges by %g (tol %g)", m, k, n, d, tol)
				}
			}
		})
	}
}

// TestKernelListInvariants pins the dispatch contract: the pure-Go kernel is
// always available and always last, and the active kernel is one of the
// advertised ones.
func TestKernelListInvariants(t *testing.T) {
	names := AvailableKernels()
	if len(names) == 0 {
		t.Fatal("no kernels available")
	}
	if names[len(names)-1] != "go-8x4" {
		t.Errorf("last kernel is %q, want the pure-Go reference", names[len(names)-1])
	}
	active := KernelName()
	found := false
	for _, n := range names {
		if n == active {
			found = true
		}
	}
	if !found {
		t.Errorf("active kernel %q not in available set %v", active, names)
	}
}

// TestPickKernel pins process-level selection: the best available kernel
// is active at start-up, and ForceKernel refuses a name it does not offer.
func TestPickKernel(t *testing.T) {
	if got, best := KernelName(), AvailableKernels()[0]; got != best {
		t.Errorf("active kernel = %q, want the best available %q", got, best)
	}
	if _, ok := ForceKernel("no-such-kernel"); ok {
		t.Error("ForceKernel accepted an unknown kernel name")
	}
}

// TestKernForSkinnyFallback checks the shape-level narrow-tile fallback for
// kernels that declare one.
func TestKernForSkinnyFallback(t *testing.T) {
	for _, k := range availKernels {
		if k.narrow == nil {
			continue
		}
		restore, _ := ForceKernel(k.name)
		if got := kernFor(sel.SkinnyN - 1); got != k.narrow {
			t.Errorf("%s: kernFor(%d) = %s, want narrow fallback %s",
				k.name, sel.SkinnyN-1, got.name, k.narrow.name)
		}
		if got := kernFor(sel.SkinnyN); got != k {
			t.Errorf("%s: kernFor(%d) = %s, want the wide kernel",
				k.name, sel.SkinnyN, got.name)
		}
		restore()
	}
}

// TestSelectionTableCoverage ensures every kernel that can be dispatched has
// sane thresholds, whether from a generated entry or the defaults.
func TestSelectionTableCoverage(t *testing.T) {
	for _, name := range append(AvailableKernels(), "unknown-kernel") {
		p := selFor(name)
		if p.SmallFlops <= 0 || p.SkinnyN <= 0 || p.ParallelFlops <= 0 ||
			p.PanelRows <= 0 || p.BatchSpanFlops <= 0 {
			t.Errorf("%s: selection entry has non-positive threshold: %+v", name, p)
		}
		if p.PanelRows%mcBlock != 0 {
			t.Errorf("%s: PanelRows = %d is not a multiple of mcBlock = %d "+
				"(panel splits would change blocked-path results)", name, p.PanelRows, mcBlock)
		}
	}
}

// BenchmarkKernels times the 256² product on every kernel this CPU can run,
// so one bench run reports the ISA ladder directly.
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := randomDense(256, 256, rng)
	y := randomDense(256, 256, rng)
	out := New(256, 256)
	for _, name := range AvailableKernels() {
		b.Run(fmt.Sprintf("%s/256", name), func(b *testing.B) {
			restore, _ := ForceKernel(name)
			defer restore()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				BlockedMulInto(out, x, y)
			}
		})
	}
}

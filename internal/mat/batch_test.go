package mat

import (
	"math/rand"
	"testing"
)

// mustPanic asserts fn panics; the batched entry points promise loud
// validation failures rather than corrupted output.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestBatchedMatchesSequential is the batched path's core contract: for
// every kernel and a mix of small (naive-route), large (blocked-route) and
// ragged items, BatchedMulInto must be bit-identical to calling MulInto on
// each item in sequence.
func TestBatchedMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	// Row counts chosen to mix naive-route items (tiny), blocked items, and
	// odd/prime rows that exercise ragged edge tiles inside a batch.
	rowSets := [][]int{
		{4},
		{64, 64, 64},
		{1, 128, 7},
		{97, 3, 211, 1, 50},
	}
	for _, name := range AvailableKernels() {
		name := name
		t.Run(name, func(t *testing.T) {
			restore, ok := ForceKernel(name)
			if !ok {
				t.Fatalf("ForceKernel(%q) failed", name)
			}
			defer restore()
			for _, rows := range rowSets {
				for _, kn := range [][2]int{{17, 5}, {64, 10}, {256, 8}, {3, 1}} {
					k, n := kn[0], kn[1]
					b := randomDense(k, n, rng)
					as := make([]*Dense, len(rows))
					dsts := make([]*Dense, len(rows))
					want := make([]*Dense, len(rows))
					for i, m := range rows {
						as[i] = randomDense(m, k, rng)
						dsts[i] = New(m, n)
						dsts[i].Fill(-1) // stale contents must be overwritten
						want[i] = New(m, n)
						MulInto(want[i], as[i], b)
					}
					BatchedMulInto(dsts, as, b)
					for i := range rows {
						if !bitIdentical(dsts[i], want[i]) {
							t.Errorf("rows=%v k=%d n=%d item %d: batched result is not bit-identical to sequential MulInto (maxdiff %g)",
								rows, k, n, i, maxAbsDiff(dsts[i], want[i]))
						}
					}
				}
			}
		})
	}
}

func bitIdentical(a, b *Dense) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if v != b.data[i] {
			return false
		}
	}
	return true
}

// TestBatchedEdgeShapes covers degenerate batches: empty batch, zero-row
// items, k == 0 (result must be zeroed), and 1×1 everything.
func TestBatchedEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	BatchedMulInto(nil, nil, New(3, 3)) // empty batch: no-op

	// Zero inner dimension zeroes the destinations.
	d := New(4, 3)
	d.Fill(9)
	BatchedMulInto([]*Dense{d}, []*Dense{New(4, 0)}, New(0, 3))
	if d.MaxAbs() != 0 {
		t.Error("k=0 batch did not zero the destination")
	}

	// A zero-row item coexists with real ones.
	b := randomDense(5, 4, rng)
	a1, a2 := New(0, 5), randomDense(7, 5, rng)
	d1, d2 := New(0, 4), New(7, 4)
	want := New(7, 4)
	MulInto(want, a2, b)
	BatchedMulInto([]*Dense{d1, d2}, []*Dense{a1, a2}, b)
	if !bitIdentical(d2, want) {
		t.Error("batch with a zero-row item mangled its neighbor")
	}

	one := randomDense(1, 1, rng)
	dd := New(1, 1)
	BatchedMulInto([]*Dense{dd}, []*Dense{one}, randomDense(1, 1, rng))
}

// TestBatchedValidation checks the loud-failure contract: length mismatch,
// dimension mismatches and destination aliasing all panic.
func TestBatchedValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	b := randomDense(6, 4, rng)
	a := randomDense(10, 6, rng)
	d := New(10, 4)

	mustPanic(t, "length mismatch", func() {
		BatchedMulInto([]*Dense{d}, []*Dense{a, a}, b)
	})
	mustPanic(t, "inner-dim mismatch", func() {
		BatchedMulInto([]*Dense{d}, []*Dense{randomDense(10, 5, rng)}, b)
	})
	mustPanic(t, "destination shape mismatch", func() {
		BatchedMulInto([]*Dense{New(10, 3)}, []*Dense{a}, b)
	})
	mustPanic(t, "dst aliases operand", func() {
		sq := randomDense(6, 6, rng)
		BatchedMulInto([]*Dense{sq}, []*Dense{sq}, randomDense(6, 6, rng))
	})
	mustPanic(t, "dst aliases b", func() {
		sq := randomDense(6, 6, rng)
		BatchedMulInto([]*Dense{sq}, []*Dense{randomDense(6, 6, rng)}, sq)
	})
	mustPanic(t, "dst aliases dst", func() {
		BatchedMulInto([]*Dense{d, d}, []*Dense{a, a}, b)
	})
	mustPanic(t, "overlapping views alias", func() {
		big := New(20, 4)
		var v1, v2 Dense
		big.ViewRows(0, 12, &v1)
		big.ViewRows(8, 20, &v2) // rows 8–11 shared
		BatchedMulInto([]*Dense{&v1, &v2},
			[]*Dense{randomDense(12, 6, rng), randomDense(12, 6, rng)}, b)
	})

	// Disjoint views of one backing array are legitimate panel batches and
	// must NOT trip the alias detector.
	big := New(20, 4)
	var v1, v2 Dense
	big.ViewRows(0, 10, &v1)
	big.ViewRows(10, 20, &v2)
	BatchedMulInto([]*Dense{&v1, &v2},
		[]*Dense{randomDense(10, 6, rng), randomDense(10, 6, rng)}, b)
}

// TestViewRows pins the aliasing view contract.
func TestViewRows(t *testing.T) {
	m := New(6, 3)
	for i := 0; i < 6; i++ {
		for j := 0; j < 3; j++ {
			m.Set(i, j, float64(10*i+j))
		}
	}
	var v Dense
	m.ViewRows(2, 5, &v)
	if r, c := v.Dims(); r != 3 || c != 3 {
		t.Fatalf("view shape %dx%d, want 3x3", r, c)
	}
	if v.At(0, 1) != 21 {
		t.Errorf("view At(0,1) = %g, want 21", v.At(0, 1))
	}
	v.Set(0, 0, -1)
	if m.At(2, 0) != -1 {
		t.Error("write through view not visible in parent")
	}
	m.ViewRows(0, 0, &v) // empty view is fine
	if !v.IsEmpty() {
		t.Error("empty view not empty")
	}
	mustPanic(t, "out-of-range view", func() { m.ViewRows(4, 7, &v) })
	mustPanic(t, "inverted view", func() { m.ViewRows(3, 2, &v) })
}

// TestPanelBatchMatchesMulInto checks the row-panel splitter against the
// unsplit product across the panel boundary: below, at, just above, and at
// several panels plus a ragged tail. PanelRows is a multiple of mcBlock, so
// blocked-path results must be bit-identical.
func TestPanelBatchMatchesMulInto(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var pb PanelBatch
	pr := sel.PanelRows
	for _, m := range []int{1, 8, pr - 1, pr, pr + 1, 2*pr + 37, 3 * pr} {
		for _, kn := range [][2]int{{32, 8}, {96, 12}, {17, 3}} {
			k, n := kn[0], kn[1]
			a := randomDense(m, k, rng)
			b := randomDense(k, n, rng)
			want := New(m, n)
			MulInto(want, a, b)
			got := New(m, n)
			got.Fill(5)
			pb.MulInto(got, a, b)
			if !bitIdentical(got, want) {
				t.Errorf("m=%d k=%d n=%d: PanelBatch not bit-identical to MulInto (maxdiff %g)",
					m, k, n, maxAbsDiff(got, want))
			}
		}
	}
	mustPanic(t, "PanelBatch dim mismatch", func() {
		pb.MulInto(New(4, 4), randomDense(4, 3, rng), randomDense(5, 4, rng))
	})
}

// TestPanelBatchSteadyStateAllocs proves the recycled headers work: after
// the first call, repeated same-shape PanelBatch products allocate nothing.
func TestPanelBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop Puts; bench-trajectory enforces this in a normal build")
	}
	rng := rand.New(rand.NewSource(3))
	var pb PanelBatch
	m := 3*sel.PanelRows + 17
	a := randomDense(m, 64, rng)
	b := randomDense(64, 10, rng)
	out := New(m, 10)
	for i := 0; i < 4; i++ {
		pb.MulInto(out, a, b) // warm-up: headers + every worker's pack buffer
	}
	allocs := testing.AllocsPerRun(10, func() {
		pb.MulInto(out, a, b)
	})
	if allocs != 0 {
		t.Errorf("steady-state PanelBatch.MulInto allocates %.0f times per call, want 0", allocs)
	}
}

// BenchmarkBatchedSkinny is the bench-trajectory entry for the batched
// path: a steady-state panel batch over a tall-skinny mode update (the
// streaming engine's dominant shape). Its baseline is 0 allocs/op, and the
// trajectory compare fails on any increase.
func BenchmarkBatchedSkinny(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	var pb PanelBatch
	const m, k, n = 4096, 48, 16
	a := randomDense(m, k, rng)
	rhs := randomDense(k, n, rng)
	out := New(m, n)
	pb.MulInto(out, a, rhs) // warm-up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.MulInto(out, a, rhs)
	}
}

// BenchmarkBatchedVsSequential reports the packing saving directly: the same
// 8-item skinny batch through BatchedMulInto and through sequential MulInto.
func BenchmarkBatchedVsSequential(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	const items, m, k, n = 8, 512, 48, 16
	as := make([]*Dense, items)
	dsts := make([]*Dense, items)
	for i := range as {
		as[i] = randomDense(m, k, rng)
		dsts[i] = New(m, n)
	}
	rhs := randomDense(k, n, rng)
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			BatchedMulInto(dsts, as, rhs)
		}
	})
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range as {
				MulInto(dsts[j], as[j], rhs)
			}
		}
	})
}

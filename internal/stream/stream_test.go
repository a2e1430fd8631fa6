package stream

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"

	"goparsvd/internal/grid"
	"goparsvd/internal/linalg"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/testutil"
)

// started is New(opts) initialized with a, for tests; it panics on an
// error.
func started(opts Options, a *mat.Dense) *SVD {
	s := New(opts)
	if err := s.Initialize(a); err != nil {
		panic(err)
	}
	return s
}

func TestInitializeMatchesBatchSVD(t *testing.T) {
	rng := testutil.NewRand(1)
	a := testutil.RandomDense(40, 8, rng)
	s := started(Options{K: 5, FF: 1}, a)
	u, sv, _ := linalg.SVD(a)
	if !testutil.CloseSlices(s.SingularValues(), sv[:5], 1e-10) {
		t.Fatalf("singular values %v vs %v", s.SingularValues(), sv[:5])
	}
	if err := testutil.MaxColumnError(u.SliceCols(0, 5), s.Modes()); err > 1e-8 {
		t.Fatalf("mode error %g", err)
	}
}

func TestStreamingEqualsOneShotForFullRankRetention(t *testing.T) {
	// ff = 1 and K ≥ rank: streaming over batches must equal the one-shot
	// SVD of the concatenated matrix (the paper's ff = 1 claim).
	rng := testutil.NewRand(2)
	a, _ := testutil.RandomLowRank(60, 24, 6, 0, rng)
	s := started(Options{K: 8, FF: 1}, a.SliceCols(0, 8))
	for off := 8; off < 24; off += 8 {
		s.IncorporateData(a.SliceCols(off, off+8))
	}
	u, sv, _ := linalg.SVD(a)
	if !testutil.CloseSlices(s.SingularValues()[:6], sv[:6], 1e-9) {
		t.Fatalf("streamed %v vs batch %v", s.SingularValues()[:6], sv[:6])
	}
	if err := testutil.MaxColumnError(u.SliceCols(0, 6), s.Modes().SliceCols(0, 6)); err > 1e-6 {
		t.Fatalf("mode error %g", err)
	}
}

func TestStreamingApproximatesLeadingModesUnderTruncation(t *testing.T) {
	// With K smaller than the batch count but a decaying spectrum, the
	// leading streamed modes still track the batch SVD.
	rng := testutil.NewRand(3)
	a, _ := testutil.RandomLowRank(80, 30, 5, 1e-8, rng)
	s := started(Options{K: 6, FF: 1}, a.SliceCols(0, 10))
	s.IncorporateData(a.SliceCols(10, 20))
	s.IncorporateData(a.SliceCols(20, 30))
	u, sv, _ := linalg.SVD(a)
	if !testutil.CloseSlices(s.SingularValues()[:5], sv[:5], 1e-6) {
		t.Fatalf("streamed %v vs batch %v", s.SingularValues()[:5], sv[:5])
	}
	if err := testutil.SubspaceError(u.SliceCols(0, 3), s.Modes().SliceCols(0, 3)); err > 1e-6 {
		t.Fatalf("leading subspace error %g", err)
	}
}

func TestForgetFactorDownweightsHistory(t *testing.T) {
	// Feed a signal that lives in direction e1 for the first batches and
	// in e2 afterwards. With ff < 1 the top mode must rotate towards e2;
	// with ff = 1 it stays dominated by the (larger) early energy.
	m := 50
	batch := func(dir int, scale float64) *mat.Dense {
		b := mat.New(m, 4)
		for j := 0; j < 4; j++ {
			b.Set(dir, j, scale)
		}
		return b
	}
	// Energy budget: the initial e1 batch carries singular value
	// sqrt(4·10²) = 20; eight e2 batches carry at most sqrt(8·4·3²) ≈ 17,
	// so with ff = 1 the top mode stays e1, while ff = 0.5 decays the e1
	// history to 20·0.5⁸ ≈ 0.08 and the top mode flips to e2.
	run := func(ff float64) float64 {
		s := started(Options{K: 2, FF: ff}, batch(0, 10))
		for i := 0; i < 8; i++ {
			s.IncorporateData(batch(1, 3))
		}
		// |top mode ⋅ e2|: how much the current top mode points at e2.
		return math.Abs(s.Modes().At(1, 0))
	}
	align1 := run(1.0)
	align05 := run(0.5)
	if align05 <= align1 {
		t.Fatalf("ff=0.5 alignment %g should exceed ff=1 alignment %g", align05, align1)
	}
	if align05 < 0.9 {
		t.Fatalf("with heavy forgetting the top mode should be ~e2, got alignment %g", align05)
	}
}

func TestForgetFactorConvergence(t *testing.T) {
	// A1 ablation: as ff → 1 the streamed singular values approach the
	// one-shot values monotonically (for this fixed workload).
	rng := testutil.NewRand(4)
	a, _ := testutil.RandomLowRank(60, 20, 4, 1e-6, rng)
	_, svBatch, _ := linalg.SVD(a)
	prevErr := math.Inf(1)
	for _, ff := range []float64{0.5, 0.8, 0.95, 1.0} {
		s := started(Options{K: 6, FF: ff}, a.SliceCols(0, 5))
		for off := 5; off < 20; off += 5 {
			s.IncorporateData(a.SliceCols(off, off+5))
		}
		err := 0.0
		for i := 0; i < 4; i++ {
			err += math.Abs(s.SingularValues()[i] - svBatch[i])
		}
		if err > prevErr+1e-9 {
			t.Fatalf("ff=%g error %g worse than previous %g", ff, err, prevErr)
		}
		prevErr = err
	}
	if prevErr > 1e-8 {
		t.Fatalf("ff=1 should match the batch SVD, error %g", prevErr)
	}
}

// TestModesStayOrthonormalAcrossUpdates is the long-horizon soak: 2000
// updates with forgetting, a sixth of them ordinary Gaussian batches and
// the rest exactly rank-deficient, all-zero, at 1e-150, at 1e150, or
// mixing such columns (testutil.HostileBatch). The modes must stay
// orthonormal to 1e-10 after every update and the spectrum finite.
func TestModesStayOrthonormalAcrossUpdates(t *testing.T) {
	const m, k, b, updates = 512, 16, 8, 2000
	rng := testutil.NewRand(5)
	s := started(Options{K: k, FF: 0.95}, testutil.RandomDense(m, b, rng))
	for i := 0; i < updates; i++ {
		s.IncorporateData(testutil.HostileBatch(m, b, i, rng))
		if loss := testutil.OrthonormalityLoss(s.Modes()); !(loss <= 1e-10) {
			t.Fatalf("update %d: ‖UᵀU−I‖_max = %g", i, loss)
		}
		for _, v := range s.SingularValues() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("update %d: singular values %v", i, s.SingularValues())
			}
		}
	}
}

func TestSingularValuesSortedDescending(t *testing.T) {
	rng := testutil.NewRand(6)
	s := started(Options{K: 5, FF: 0.9}, testutil.RandomDense(25, 7, rng))
	for i := 0; i < 5; i++ {
		s.IncorporateData(testutil.RandomDense(25, 7, rng))
		sv := s.SingularValues()
		for j := 1; j < len(sv); j++ {
			if sv[j] > sv[j-1]+1e-12 {
				t.Fatalf("iteration %d: singular values not sorted: %v", i, sv)
			}
		}
	}
}

func TestLowRankStreamingTracksDeterministic(t *testing.T) {
	rng := testutil.NewRand(7)
	a, _ := testutil.RandomLowRank(60, 24, 4, 1e-7, rng)
	det := started(Options{K: 5, FF: 1}, a.SliceCols(0, 8))
	rnd := started(Options{K: 5, FF: 1, LowRank: true}, a.SliceCols(0, 8))
	for off := 8; off < 24; off += 8 {
		det.IncorporateData(a.SliceCols(off, off+8))
		rnd.IncorporateData(a.SliceCols(off, off+8))
	}
	for i := 0; i < 4; i++ {
		d, r := det.SingularValues()[i], rnd.SingularValues()[i]
		if math.Abs(d-r) > 1e-5*(1+d) {
			t.Fatalf("value %d: deterministic %g vs randomized %g", i, d, r)
		}
	}
}

func TestKLargerThanBatchClamps(t *testing.T) {
	rng := testutil.NewRand(8)
	s := started(Options{K: 10, FF: 1}, testutil.RandomDense(20, 3, rng))
	if s.Modes().Cols() != 3 || len(s.SingularValues()) != 3 {
		t.Fatalf("K must clamp to available columns: %d", s.Modes().Cols())
	}
	// The retained rank grows as more snapshots arrive.
	s.IncorporateData(testutil.RandomDense(20, 3, rng))
	if s.Modes().Cols() != 6 {
		t.Fatalf("after second batch want 6 columns, got %d", s.Modes().Cols())
	}
}

func TestCountersAndAccessors(t *testing.T) {
	rng := testutil.NewRand(9)
	s := New(Options{K: 2, FF: 0.95})
	if s.Initialized() {
		t.Fatal("fresh SVD reports initialized")
	}
	s.Initialize(testutil.RandomDense(10, 4, rng))
	s.IncorporateData(testutil.RandomDense(10, 3, rng))
	s.IncorporateData(testutil.RandomDense(10, 2, rng))
	if !s.Initialized() || s.Iterations() != 2 || s.SnapshotsSeen() != 9 {
		t.Fatalf("counters: init=%v iters=%d snaps=%d", s.Initialized(), s.Iterations(), s.SnapshotsSeen())
	}
}

func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"modes before init", func() { New(Options{K: 2, FF: 1}).Modes() }},
		{"values before init", func() { New(Options{K: 2, FF: 1}).SingularValues() }},
		{"incorporate before init", func() {
			New(Options{K: 2, FF: 1}).IncorporateData(mat.New(3, 2))
		}},
		{"double init", func() {
			s := started(Options{K: 2, FF: 1}, mat.Eye(3))
			s.Initialize(mat.Eye(3))
		}},
		{"bad K", func() { New(Options{K: 0, FF: 1}) }},
		{"bad ff", func() { New(Options{K: 2, FF: 0}) }},
		{"ff > 1", func() { New(Options{K: 2, FF: 1.5}) }},
		{"row mismatch", func() {
			s := started(Options{K: 2, FF: 1}, mat.Eye(3))
			s.IncorporateData(mat.New(4, 2))
		}},
		{"absorb row mismatch", func() {
			s := started(Options{K: 2, FF: 1}, mat.Eye(3))
			s.Absorb(mat.New(4, 1), []float64{1})
		}},
		{"absorb more than K", func() {
			s := started(Options{K: 2, FF: 1}, mat.Eye(3))
			s.Absorb(mat.Eye(3), []float64{1, 1, 1})
		}},
		{"filled without batch rows", func() {
			started(Options{K: 2, FF: 1}, mat.Eye(3)).IncorporateFilled(2)
		}},
		{"filled other width", func() {
			s := started(Options{K: 2, FF: 1}, mat.Eye(3))
			s.BatchRows(2)
			s.IncorporateFilled(1)
		}},
		{"first batch after init", func() {
			started(Options{K: 2, FF: 1}, mat.Eye(3)).FirstBatch(3, 2)
		}},
		{"empty first batch", func() { New(Options{K: 2, FF: 1}).FirstBatch(3, 0) }},
		{"init filled without first batch", func() { New(Options{K: 2, FF: 1}).InitializeFilled() }},
		{"distributed without comm", func() { NewDistributed(nil, Options{K: 2, FF: 1}) }},
		{"modes after release", func() { released().ModeRows() }},
		{"incorporate after release", func() { released().IncorporateData(mat.New(3, 2)) }},
		{"first batch after release", func() { released().FirstBatch(3, 2) }},
		{"seed after release", func() { released().Seed(mat.Eye(3), []float64{1, 1, 1}, 0, 3) }},
		{"first batch of an unseeded released engine", func() {
			s := New(Options{K: 2, FF: 1})
			s.Release()
			s.FirstBatch(3, 2)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

// released is an engine seeded and then released, for the usage tests.
func released() *SVD {
	s := started(Options{K: 3, FF: 1}, mat.Eye(3))
	s.Release()
	s.Release() // a second Release is a no-op
	return s
}

// TestReleaseHandsOnTheBuffer: a released engine's buffer is what the
// next FirstBatch, or BatchRows growth, in the process starts from when it
// holds the rows needed and at most twice that; a buffer outside that
// range is dropped, and a restored engine's exact k rows are not pooled at
// all. The buffer comes back filled with NaN
// (PoisonReleased), so an engine that read its stale contents would not
// match the one seeded in fresh storage. GC is off and one P runs, so the
// pool keeps what it was given.
func TestReleaseHandsOnTheBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a random quarter of what it is given")
	}
	const k, b = 4, 6
	opts := Options{K: k, FF: 0.9}
	a := testutil.RandomDense(100, 2*b, testutil.NewRand(51))
	// The references are seeded before the pool is emptied, and never
	// released.
	refs := map[int]*SVD{}
	for _, m := range []int{100, 60, 40} {
		refs[m] = started(opts, a.SliceRows(0, m).SliceCols(0, b))
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer PoisonReleased(PoisonReleased(true))
	runtime.GC() // twice: the pool keeps a collection's survivors until the next
	runtime.GC()

	seed := func(m int) (*SVD, *float64) {
		t.Helper()
		s := New(opts)
		first := s.FirstBatch(m, b)
		a.SliceRows(0, m).SliceCols(0, b).TInto(first)
		buf := &first.RawData()[0]
		if err := s.InitializeFilled(); err != nil {
			t.Fatal(err)
		}
		ref := refs[m]
		if !bitsEqual(s.SingularValues(), ref.SingularValues()) || !bitsEqual(s.ModeRows().RawData(), ref.ModeRows().RawData()) {
			t.Fatalf("an engine seeded over %d rows after a Release differs from one seeded in fresh storage", m)
		}
		return s, buf
	}
	e, big := seed(100) // (K+B)·100 values
	e.Release()
	e, buf := seed(60) // 1000 values are at most twice the 600 needed
	if buf != big {
		t.Fatal("a seeding whose need the released buffer covers within 2x did not reuse it")
	}
	e.Release()
	e, small := seed(40) // but more than twice 400: dropped
	if small == big {
		t.Fatal("a seeding reused a buffer more than twice its need")
	}
	e.Release()
	if _, buf = seed(100); buf == big || buf == small {
		t.Fatal("a dropped or too small buffer was reused")
	}

	// A restored engine's exact k rows are not pooled, so they cannot
	// shadow a fitting buffer released after them.
	restored, err := Restore(opts, refs[100].Modes(), refs[100].SingularValues(), 0, b)
	if err != nil {
		t.Fatal(err)
	}
	e, big = seed(100)
	restored.Release()
	e.Release()
	if _, buf = seed(100); buf != big {
		t.Fatal("a released restored engine's buffer kept a fitting one from being reused")
	}

	// Growth: seeded b/2 wide, the engine grows to K+b rows at its first
	// b-wide batch, into the buffer released last.
	grower := New(opts)
	if err := grower.Initialize(a.SliceCols(0, b/2)); err != nil {
		t.Fatal(err)
	}
	e, big = seed(100)
	e.Release()
	a.SliceCols(b, 2*b).TInto(grower.BatchRows(b))
	if &grower.ModeRows().RawData()[0] != big {
		t.Fatal("BatchRows grew into fresh storage with a released buffer of the size in the pool")
	}
	if err := grower.IncorporateFilled(b); err != nil {
		t.Fatal(err)
	}
	ref := started(opts, a.SliceCols(0, b/2))
	if err := ref.IncorporateData(a.SliceCols(b, 2*b)); err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(grower.SingularValues(), ref.SingularValues()) || !bitsEqual(grower.ModeRows().RawData(), ref.ModeRows().RawData()) {
		t.Fatal("an engine that grew into a released buffer differs from one that grew into fresh storage")
	}
}

func TestEmptyBatchIsNoOp(t *testing.T) {
	rng := testutil.NewRand(10)
	s := started(Options{K: 2, FF: 1}, testutil.RandomDense(10, 4, rng))
	before := s.Modes().Clone()
	s.IncorporateData(mat.New(10, 0))
	if !mat.EqualApprox(before, s.Modes(), 0) {
		t.Fatal("empty batch changed the state")
	}
}

// Property: for random low-rank data streamed with ff = 1, the streamed
// spectrum matches the one-shot spectrum.
func TestPropertyStreamingMatchesBatch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rank := 2 + rng.Intn(3)
		batches := 2 + rng.Intn(3)
		bs := rank + 1 + rng.Intn(4)
		n := batches * bs
		m := n + 10 + rng.Intn(30)
		a, _ := testutil.RandomLowRank(m, n, rank, 0, rng)
		s := started(Options{K: rank + 2, FF: 1}, a.SliceCols(0, bs))
		for off := bs; off < n; off += bs {
			s.IncorporateData(a.SliceCols(off, off+bs))
		}
		_, sv, _ := linalg.SVD(a)
		return testutil.CloseSlices(s.SingularValues()[:rank], sv[:rank], 1e-7)
	}
	cfg := &quick.Config{MaxCount: 20, Rand: testutil.NewRand(11)}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRoundTrip(t *testing.T) {
	rng := testutil.NewRand(12)
	orig := started(Options{K: 3, FF: 0.9}, testutil.RandomDense(15, 5, rng))
	orig.IncorporateData(testutil.RandomDense(15, 4, rng))

	restored, err := Restore(Options{K: 3, FF: 0.9},
		orig.Modes().Clone(),
		orig.SingularValues(),
		orig.Iterations(), orig.SnapshotsSeen())
	if err != nil {
		t.Fatal(err)
	}

	if !restored.Initialized() {
		t.Fatal("restored state not initialized")
	}
	if restored.Iterations() != 1 || restored.SnapshotsSeen() != 9 {
		t.Fatalf("counters: %d, %d", restored.Iterations(), restored.SnapshotsSeen())
	}
	// Continuation must match.
	next := testutil.RandomDense(15, 4, rng)
	orig.IncorporateData(next)
	restored.IncorporateData(next)
	if !mat.EqualApprox(orig.Modes(), restored.Modes(), 1e-13) {
		t.Fatal("restored stream diverged")
	}
}

func TestRestoreValidation(t *testing.T) {
	m := mat.New(5, 2)
	for name, fn := range map[string]func() (*SVD, error){
		"nil modes": func() (*SVD, error) {
			return Restore(Options{K: 2, FF: 1}, nil, nil, 0, 0)
		},
		"empty modes": func() (*SVD, error) {
			return Restore(Options{K: 2, FF: 1}, mat.New(0, 0), nil, 0, 0)
		},
		"size mismatch": func() (*SVD, error) {
			return Restore(Options{K: 2, FF: 1}, m, []float64{1}, 0, 2)
		},
		"K below singular count": func() (*SVD, error) {
			return Restore(Options{K: 1, FF: 1}, m, []float64{2, 1}, 0, 2)
		},
		"bad options": func() (*SVD, error) {
			return Restore(Options{K: 2, FF: 1.5}, m, []float64{2, 1}, 0, 2)
		},
		"bad iterations": func() (*SVD, error) {
			return Restore(Options{K: 2, FF: 1}, m, []float64{1, 2}, -1, 2)
		},
		"bad snapshots": func() (*SVD, error) {
			return Restore(Options{K: 2, FF: 1}, m, []float64{1, 2}, 0, 1)
		},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := fn(); err == nil {
				t.Fatalf("%s did not error", name)
			}
		})
	}
}

// TestBatchRowsFillInPlace: a batch written transposed into BatchRows and
// ingested by IncorporateFilled updates the engine bit for bit as
// IncorporateData of the batch does.
func TestBatchRowsFillInPlace(t *testing.T) {
	rng := testutil.NewRand(21)
	a := testutil.RandomDense(50, 24, rng)
	opts := Options{K: 5, FF: 0.95}
	ref := started(opts, a.SliceCols(0, 8))
	eng := started(opts, a.SliceCols(0, 8))
	for off := 8; off < 24; off += 8 {
		batch := a.SliceCols(off, off+8)
		ref.IncorporateData(batch)
		batch.TInto(eng.BatchRows(8))
		eng.IncorporateFilled(8)
		if !mat.EqualApprox(eng.ModeRows(), ref.ModeRows(), 0) || !testutil.CloseSlices(eng.SingularValues(), ref.SingularValues(), 0) {
			t.Fatalf("after %d snapshots the filled engine differs from IncorporateData's", off+8)
		}
	}
	if eng.Iterations() != ref.Iterations() || eng.SnapshotsSeen() != ref.SnapshotsSeen() {
		t.Fatalf("counters %d/%d, want %d/%d", eng.Iterations(), eng.SnapshotsSeen(), ref.Iterations(), ref.SnapshotsSeen())
	}
}

// TestFirstBatchSeedsInPlace: on every engine — serial, blocked over 1 to
// 3 row blocks, and each rank of a 3-rank distributed world — a batch
// written transposed into FirstBatch seeds the engine bit for bit as
// Initialize of the batch does, and the seeding writes the modes over the
// first rows of the buffer the batch was written into; later B-wide
// batches written into BatchRows update it bit for bit as IncorporateData
// does, without leaving that buffer. The distributed world's last rank
// holds fewer rows (2) than the batch has snapshots (4), so its block of Q
// has fewer rows than the factor has columns.
func TestFirstBatchSeedsInPlace(t *testing.T) {
	const k, b = 3, 4
	a, _ := testutil.RandomLowRank(292, 3*b, 5, 1e-3, testutil.NewRand(31))
	opts := Options{K: k, FF: 0.9}
	t.Run("serial", func(t *testing.T) {
		if msg := seedInPlace(New(opts), New(opts), a, b); msg != "" {
			t.Error(msg)
		}
	})
	for p := 1; p <= 3; p++ {
		t.Run(fmt.Sprintf("blocked/p=%d", p), func(t *testing.T) {
			if msg := seedInPlace(NewBlocked(opts, p), NewBlocked(opts, p), a, b); msg != "" {
				t.Error(msg)
			}
		})
	}
	t.Run("distributed/p=3", func(t *testing.T) {
		bounds := []int{0, 150, 290, 292}
		mpi.MustRun(3, func(c *mpi.Comm) {
			local := a.SliceRows(bounds[c.Rank()], bounds[c.Rank()+1])
			if msg := seedInPlace(NewDistributed(c, opts), NewDistributed(c, opts), local, b); msg != "" {
				t.Errorf("rank %d: %s", c.Rank(), msg)
			}
		})
	})
}

// seedInPlace feeds the b-wide batches of a to eng through FirstBatch,
// InitializeFilled, BatchRows and IncorporateFilled, and to ref through
// Initialize and IncorporateData. It reports the first batch after which
// eng's modes or spectrum differ from ref's in any bit, or its modes are
// not the first rows of the buffer FirstBatch handed out; "" when none.
func seedInPlace(eng, ref *SVD, a *mat.Dense, b int) string {
	first := eng.FirstBatch(a.Rows(), b)
	a.SliceCols(0, b).TInto(first)
	buf := &first.RawData()[0]
	for off := 0; off < a.Cols(); off += b {
		batch := a.SliceCols(off, off+b)
		var err, refErr error
		if off == 0 {
			err, refErr = eng.InitializeFilled(), ref.Initialize(batch)
		} else {
			batch.TInto(eng.BatchRows(b))
			err, refErr = eng.IncorporateFilled(b), ref.IncorporateData(batch)
		}
		switch {
		case err != nil || refErr != nil:
			return fmt.Sprintf("after %d snapshots: %v, reference %v", off+b, err, refErr)
		case !bitsEqual(eng.SingularValues(), ref.SingularValues()) ||
			!bitsEqual(eng.ModeRows().RawData(), ref.ModeRows().RawData()):
			return fmt.Sprintf("after %d snapshots: the in-place engine differs from the reference", off+b)
		case &eng.ModeRows().RawData()[0] != buf:
			return fmt.Sprintf("after %d snapshots: the modes are not the first rows of the seeded batch's buffer", off+b)
		}
	}
	return ""
}

// bitsEqual reports whether two slices hold the same bit patterns.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBlockedMatchesDistributed: the blocked step is the distributed
// update in one process. After every batch, NewBlocked(opts, p) holds the
// spectrum and modes a p-rank NewDistributed world fed the same
// batches holds, bit for bit: each block of its ModeRows is that rank's
// ModeRows. The shapes include rank blocks shorter than the batch and a
// snapshot matrix with fewer rows than the stack is wide (M < K+B).
func TestBlockedMatchesDistributed(t *testing.T) {
	cases := []struct {
		name       string
		m, k, b    int
		ranks      []int
		batchCount int
	}{
		{"tall", 40, 5, 8, []int{1, 2, 3, 4}, 4},
		{"short blocks", 10, 5, 8, []int{3, 4}, 4},
		{"wide stack", 16, 6, 12, []int{2, 3}, 3},
	}
	for _, tc := range cases {
		a := testutil.RandomDense(tc.m, tc.b*tc.batchCount, testutil.NewRand(int64(tc.m)))
		for _, p := range tc.ranks {
			for _, lowRank := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/p=%d/lowrank=%v", tc.name, p, lowRank), func(t *testing.T) {
					opts := Options{K: tc.k, FF: 0.95, LowRank: lowRank}
					modes, spectra := distributedRun(opts, a, tc.b, p)
					eng := NewBlocked(opts, p)
					parts := grid.Partition(tc.m, p)
					for i := range spectra {
						batch := a.SliceCols(i*tc.b, (i+1)*tc.b)
						var err error
						if i == 0 {
							err = eng.Initialize(batch)
						} else {
							err = eng.IncorporateData(batch)
						}
						if err != nil {
							t.Fatal(err)
						}
						if !testutil.CloseSlices(eng.SingularValues(), spectra[i], 0) {
							t.Fatalf("batch %d: spectrum %v, distributed %v", i, eng.SingularValues(), spectra[i])
						}
						rows := eng.ModeRows()
						for r, pr := range parts {
							if !mat.EqualApprox(rows.Slice(0, rows.Rows(), pr.Start, pr.End), modes[i][r], 0) {
								t.Fatalf("batch %d: block %d of the modes differs from rank %d's", i, r, r)
							}
						}
					}
				})
			}
		}
	}
}

// distributedRun feeds the b-wide batches of a to a p-rank world of
// NewDistributed engines, each holding its grid.Partition block of
// the rows, and returns after every batch each rank's ModeRows and rank
// 0's spectrum.
func distributedRun(opts Options, a *mat.Dense, b, p int) (modes [][]*mat.Dense, spectra [][]float64) {
	n := a.Cols() / b
	modes = make([][]*mat.Dense, n)
	for i := range modes {
		modes[i] = make([]*mat.Dense, p)
	}
	spectra = make([][]float64, n)
	parts := grid.Partition(a.Rows(), p)
	mpi.MustRun(p, func(c *mpi.Comm) {
		r := c.Rank()
		blk := a.SliceRows(parts[r].Start, parts[r].End)
		s := NewDistributed(c, opts)
		err := s.Initialize(blk.SliceCols(0, b))
		for i := 0; ; i++ {
			if err != nil {
				panic(err)
			}
			modes[i][r] = s.ModeRows().Clone()
			if r == 0 {
				spectra[i] = append([]float64(nil), s.SingularValues()...)
			}
			if i+1 == n {
				return
			}
			err = s.IncorporateData(blk.SliceCols((i+1)*b, (i+2)*b))
		}
	})
	return modes, spectra
}

// refStream is the update as it stood before the modes went mode-major, kept
// as the reference for the in-place engine: M×k modes, the stack built by
// MulDiagScaledTInto into a fresh transposed buffer, the full small SVD,
// and the new modes written by MulQInto into a separate M×k matrix. Its
// absorb is the pairwise merge as it stood before it ran on the engine.
type refStream struct {
	k     int
	ff    float64
	modes *mat.Dense
	s     []float64
	tail  float64 // Σ of the squared singular values the last rotate dropped
}

func (r *refStream) rotate(at *mat.Dense) {
	f, rr := linalg.FactorQR(nil, at)
	u, d, _ := linalg.SVDWith(nil, rr)
	k := min(r.k, len(d))
	r.modes = mat.New(at.Cols(), k)
	f.MulQInto(nil, r.modes, u.SliceCols(0, k))
	f.Release(nil)
	r.s = d[:k]
	r.tail = 0
	for _, v := range d[k:] {
		r.tail += v * v
	}
}

func (r *refStream) initialize(a *mat.Dense) { r.rotate(a.T()) }

func (r *refStream) incorporate(a *mat.Dense) {
	m, b := a.Dims()
	k0 := r.modes.Cols()
	at := mat.New(k0+b, m)
	var top, bot mat.Dense
	at.ViewRows(0, k0, &top)
	mat.MulDiagScaledTInto(&top, r.ff, r.modes, r.s)
	at.ViewRows(k0, k0+b, &bot)
	a.TInto(&bot)
	r.rotate(at)
}

// absorb stacks [U·diag(s) | U_b·diag(s_b)] with weight 1 on both sides.
func (r *refStream) absorb(u *mat.Dense, s []float64) {
	m, kb := u.Dims()
	k0 := r.modes.Cols()
	at := mat.New(k0+kb, m)
	var top, bot mat.Dense
	at.ViewRows(0, k0, &top)
	mat.MulDiagScaledTInto(&top, 1, r.modes, r.s)
	at.ViewRows(k0, k0+kb, &bot)
	mat.MulDiagScaledTInto(&bot, 1, u, s)
	r.rotate(at)
}

// truncatedSVD is the exact SVD of a cut to at most k modes: an operand
// for Absorb.
func truncatedSVD(a *mat.Dense, k int) (*mat.Dense, []float64) {
	u, s, _ := linalg.SVDWith(nil, a)
	k = min(k, len(s))
	return u.SliceCols(0, k), s[:k]
}

// TestModeMajorMatchesReference streams Initialize plus 200 updates through
// the engine and through refStream, for both forget factors and for
// batches narrower than, equal to and wider than K, a first batch wider
// than K, and fewer rows than K+B. Every fifth update absorbs the truncated
// SVD of a batch instead, which must weight the engine's own modes by 1,
// not ff. The modes must agree to 1e-13 relative and the spectra and
// Absorb's discarded energy to roundoff after every update.
func TestModeMajorMatchesReference(t *testing.T) {
	cases := []struct {
		name        string
		m, k, b0, b int
	}{
		{"B<K", 80, 8, 3, 3},
		{"B=K", 80, 8, 8, 8},
		{"B>K", 80, 4, 9, 9},
		{"first batch wider than K", 80, 5, 12, 4},
		{"M<K+B", 12, 8, 8, 8},
		{"fit-serial shape", 4096, 16, 16, 16},
	}
	for _, tc := range cases {
		for _, ff := range []float64{1, 0.95} {
			t.Run(fmt.Sprintf("%s/ff=%g", tc.name, ff), func(t *testing.T) {
				rng := testutil.NewRand(int64(tc.m*100 + tc.k*10 + tc.b))
				updates := 200
				if tc.m > 1000 {
					updates = 20
				}
				batch := func(b int) *mat.Dense { return testutil.RandomDense(tc.m, b, rng) }
				first := batch(tc.b0)
				s := started(Options{K: tc.k, FF: ff}, first)
				ref := &refStream{k: tc.k, ff: ff}
				ref.initialize(first)
				for i := 0; i <= updates; i++ {
					switch {
					case i > 0 && i%5 == 0:
						u, sv := truncatedSVD(batch(tc.b), tc.k)
						tail, err := s.Absorb(u, sv)
						if err != nil {
							t.Fatal(err)
						}
						ref.absorb(u, sv)
						if math.Abs(tail-ref.tail) > 1e-13*ref.s[0]*ref.s[0] {
							t.Fatalf("update %d: Absorb discarded %.17g, reference %.17g", i, tail, ref.tail)
						}
					case i > 0:
						a := batch(tc.b)
						s.IncorporateData(a)
						ref.incorporate(a)
					}
					if d := maxAbsDiff(s.Modes(), ref.modes); !(d <= 1e-13) {
						t.Fatalf("update %d: modes differ by %g", i, d)
					}
					got, want := s.SingularValues(), ref.s
					if len(got) != len(want) {
						t.Fatalf("update %d: %d singular values, reference %d", i, len(got), len(want))
					}
					for j := range got {
						if math.Abs(got[j]-want[j]) > 1e-14*want[0] {
							t.Fatalf("update %d: σ_%d = %.17g, reference %.17g", i, j, got[j], want[j])
						}
					}
				}
			})
		}
	}
}

func maxAbsDiff(x, y *mat.Dense) float64 {
	if x.Rows() != y.Rows() || x.Cols() != y.Cols() {
		return math.Inf(1)
	}
	var d float64
	for i, v := range x.RawData() {
		if e := math.Abs(v - y.RawData()[i]); !(e <= d) {
			d = e
		}
	}
	return d
}

// TestOptionsValidateForgetFactor: a forget factor outside (0, 1] is
// refused, NaN included, which no ordered comparison can reach.
func TestOptionsValidateForgetFactor(t *testing.T) {
	for _, ff := range []float64{1, 0.5, math.SmallestNonzeroFloat64} {
		if err := (Options{K: 2, FF: ff}).Validate(); err != nil {
			t.Errorf("ff %g refused: %v", ff, err)
		}
	}
	for _, ff := range []float64{0, -0.5, 1.5, math.Inf(1), math.NaN()} {
		if err := (Options{K: 2, FF: ff}).Validate(); err == nil {
			t.Errorf("ff %g accepted", ff)
		}
	}
}

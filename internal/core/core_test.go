package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"goparsvd/internal/apmos"
	"goparsvd/internal/linalg"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/testutil"
)

// splitRows partitions a into p contiguous row blocks as evenly as possible.
func splitRows(a *mat.Dense, p int) []*mat.Dense {
	m := a.Rows()
	blocks := make([]*mat.Dense, p)
	base, rem := m/p, m%p
	off := 0
	for r := 0; r < p; r++ {
		rows := base
		if r < rem {
			rows++
		}
		blocks[r] = a.SliceRows(off, off+rows)
		off += rows
	}
	return blocks
}

// runParallelStream streams the columns of a through Parallel engines on p
// ranks in batches of the given size and returns the gathered modes and
// singular values.
func runParallelStream(t *testing.T, a *mat.Dense, p, batch int, opts Options) (*mat.Dense, []float64) {
	t.Helper()
	blocks := splitRows(a, p)
	n := a.Cols()
	var modes *mat.Dense
	var s []float64
	var mu sync.Mutex
	mpi.MustRun(p, func(c *mpi.Comm) {
		eng := NewParallel(c, opts)
		local := blocks[c.Rank()]
		eng.Initialize(local.SliceCols(0, batch))
		for off := batch; off < n; off += batch {
			end := off + batch
			if end > n {
				end = n
			}
			eng.IncorporateData(local.SliceCols(off, end))
		}
		gathered := eng.GatherModes()
		if c.Rank() == 0 {
			mu.Lock()
			modes = gathered
			s = append([]float64(nil), eng.SingularValues()...)
			mu.Unlock()
		}
	})
	return modes, s
}

// runSerialStream streams the columns of a through a Serial engine.
func runSerialStream(a *mat.Dense, batch int, opts Options) *Serial {
	eng := NewSerial(opts)
	n := a.Cols()
	eng.Initialize(a.SliceCols(0, batch))
	for off := batch; off < n; off += batch {
		end := off + batch
		if end > n {
			end = n
		}
		eng.IncorporateData(a.SliceCols(off, end))
	}
	return eng
}

func TestSerialMatchesOneShotSVD(t *testing.T) {
	rng := testutil.NewRand(1)
	a, _ := testutil.RandomLowRank(80, 24, 5, 0, rng)
	eng := runSerialStream(a, 8, Options{K: 6, ForgetFactor: 1})
	u, sv, _ := linalg.SVD(a)
	if !testutil.CloseSlices(eng.SingularValues()[:5], sv[:5], 1e-8) {
		t.Fatalf("values %v vs %v", eng.SingularValues()[:5], sv[:5])
	}
	if err := testutil.MaxColumnError(u.SliceCols(0, 5), eng.Modes().SliceCols(0, 5)); err > 1e-6 {
		t.Fatalf("mode error %g", err)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	// The paper's Figure 1(a,b) claim in miniature: the distributed
	// streaming SVD agrees with the serial streaming SVD.
	rng := testutil.NewRand(2)
	a, _ := testutil.RandomLowRank(96, 24, 6, 1e-7, rng)
	opts := Options{K: 5, ForgetFactor: 1, R1: 24}
	serial := runSerialStream(a, 8, opts)
	for _, p := range []int{1, 2, 4} {
		modes, s := runParallelStream(t, a, p, 8, opts)
		if !testutil.CloseSlices(s[:5], serial.SingularValues()[:5], 1e-6) {
			t.Fatalf("p=%d: values %v vs serial %v", p, s, serial.SingularValues())
		}
		if err := testutil.MaxColumnError(serial.Modes(), modes); err > 1e-5 {
			t.Fatalf("p=%d: mode error %g", p, err)
		}
	}
}

func TestParallelMatchesSerialWithForgetFactor(t *testing.T) {
	// With ff < 1 the two engines run identical mathematics, so they must
	// still agree (this exercises the ff path through the distributed QR).
	rng := testutil.NewRand(3)
	a, _ := testutil.RandomLowRank(60, 18, 4, 1e-7, rng)
	opts := Options{K: 4, ForgetFactor: 0.95, R1: 18}
	serial := runSerialStream(a, 6, opts)
	modes, s := runParallelStream(t, a, 3, 6, opts)
	if !testutil.CloseSlices(s, serial.SingularValues(), 1e-6) {
		t.Fatalf("values %v vs serial %v", s, serial.SingularValues())
	}
	if err := testutil.MaxColumnError(serial.Modes(), modes); err > 1e-5 {
		t.Fatalf("mode error %g", err)
	}
}

func TestParallelModesOrthonormal(t *testing.T) {
	rng := testutil.NewRand(4)
	a, _ := testutil.RandomLowRank(80, 20, 8, 1e-6, rng)
	modes, _ := runParallelStream(t, a, 4, 5, Options{K: 4, ForgetFactor: 0.95, R1: 20})
	testutil.CheckOrthonormalColumns(t, "gathered modes", modes, 1e-8)
}

func TestParallelLowRankTracksDeterministic(t *testing.T) {
	rng := testutil.NewRand(5)
	a, _ := testutil.RandomLowRank(64, 16, 4, 1e-8, rng)
	det, sDet := runParallelStream(t, a, 2, 8, Options{K: 4, ForgetFactor: 1, R1: 16})
	lr, sLR := runParallelStream(t, a, 2, 8, Options{K: 4, ForgetFactor: 1, R1: 16, LowRank: true})
	for i := range sDet {
		if math.Abs(sDet[i]-sLR[i]) > 1e-5*(1+sDet[0]) {
			t.Fatalf("value %d: %g vs %g", i, sDet[i], sLR[i])
		}
	}
	if err := testutil.SubspaceError(det, lr); err > 1e-4 {
		t.Fatalf("low-rank modes differ: %g", err)
	}
}

func TestParallelSingularValuesIdenticalAcrossRanks(t *testing.T) {
	rng := testutil.NewRand(6)
	a := testutil.RandomDense(40, 12, rng)
	blocks := splitRows(a, 4)
	var mu sync.Mutex
	all := make([][]float64, 4)
	mpi.MustRun(4, func(c *mpi.Comm) {
		eng := NewParallel(c, Options{K: 3, ForgetFactor: 1, R1: 12})
		eng.Initialize(blocks[c.Rank()].SliceCols(0, 6))
		eng.IncorporateData(blocks[c.Rank()].SliceCols(6, 12))
		mu.Lock()
		all[c.Rank()] = append([]float64(nil), eng.SingularValues()...)
		mu.Unlock()
	})
	for r := 1; r < 4; r++ {
		if !testutil.CloseSlices(all[0], all[r], 0) {
			t.Fatalf("rank %d singular values differ: %v vs %v", r, all[r], all[0])
		}
	}
}

func TestSerialImplementsDecomposer(t *testing.T) {
	var d Decomposer = NewSerial(Options{K: 2, ForgetFactor: 1})
	rng := testutil.NewRand(7)
	d = d.Initialize(testutil.RandomDense(10, 4, rng))
	d = d.IncorporateData(testutil.RandomDense(10, 4, rng))
	if d.Iterations() != 1 || d.Modes().Cols() != 2 || len(d.SingularValues()) != 2 {
		t.Fatal("Decomposer contract violated by Serial")
	}
}

func TestUsageErrorsSerial(t *testing.T) {
	for name, fn := range map[string]func(){
		"bad K":  func() { NewSerial(Options{K: 0, ForgetFactor: 1}) },
		"bad ff": func() { NewSerial(Options{K: 1, ForgetFactor: 0}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		})
	}
}

func TestUsageErrorsParallel(t *testing.T) {
	if _, err := mpi.Run(2, func(c *mpi.Comm) {
		eng := NewParallel(c, Options{K: 2, ForgetFactor: 1})
		eng.Modes() // before Initialize
	}); err == nil {
		t.Fatal("Modes before Initialize must fail")
	}
	if _, err := mpi.Run(2, func(c *mpi.Comm) {
		eng := NewParallel(c, Options{K: 2, ForgetFactor: 1})
		eng.Initialize(mat.Eye(4))
		eng.Initialize(mat.Eye(4))
	}); err == nil {
		t.Fatal("double Initialize must fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("nil communicator must panic")
		}
	}()
	NewParallel(nil, Options{K: 2, ForgetFactor: 1})
}

func TestParallelCounters(t *testing.T) {
	rng := testutil.NewRand(8)
	a := testutil.RandomDense(24, 9, rng)
	blocks := splitRows(a, 2)
	mpi.MustRun(2, func(c *mpi.Comm) {
		eng := NewParallel(c, Options{K: 2, ForgetFactor: 1, R1: 9})
		eng.Initialize(blocks[c.Rank()].SliceCols(0, 3))
		eng.IncorporateData(blocks[c.Rank()].SliceCols(3, 6))
		eng.IncorporateData(blocks[c.Rank()].SliceCols(6, 9))
		if eng.Iterations() != 2 || eng.SnapshotsSeen() != 9 {
			t.Errorf("rank %d: iters=%d snaps=%d", c.Rank(), eng.Iterations(), eng.SnapshotsSeen())
		}
		if eng.Rank() != c.Rank() {
			t.Errorf("Rank() = %d, want %d", eng.Rank(), c.Rank())
		}
	})
}

func TestParallelMethodSVDVariant(t *testing.T) {
	// MethodSVD local right vectors must give the same decomposition as
	// the default Gram path.
	rng := testutil.NewRand(9)
	a, _ := testutil.RandomLowRank(48, 12, 4, 1e-7, rng)
	gram, sGram := runParallelStream(t, a, 2, 6, Options{K: 3, ForgetFactor: 1, R1: 12})
	svd, sSVD := runParallelStream(t, a, 2, 6,
		Options{K: 3, ForgetFactor: 1, R1: 12, Method: apmos.MethodSVD})
	if !testutil.CloseSlices(sGram, sSVD, 1e-6) {
		t.Fatalf("values %v vs %v", sGram, sSVD)
	}
	if err := testutil.SubspaceError(gram, svd); err > 1e-5 {
		t.Fatalf("modes differ: %g", err)
	}
}

// Property: serial and parallel engines agree for random low-rank streams,
// rank counts and batch sizes.
func TestPropertySerialParallelAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(4)
		rank := 2 + rng.Intn(3)
		batch := rank + 2 + rng.Intn(3)
		nBatches := 2 + rng.Intn(3)
		n := batch * nBatches
		m := p * (n + 5 + rng.Intn(20))
		a, _ := testutil.RandomLowRank(m, n, rank, 0, rng)
		opts := Options{K: rank, ForgetFactor: 1, R1: n}
		serial := runSerialStream(a, batch, opts)

		blocks := splitRows(a, p)
		var s []float64
		var mu sync.Mutex
		mpi.MustRun(p, func(c *mpi.Comm) {
			eng := NewParallel(c, opts)
			eng.Initialize(blocks[c.Rank()].SliceCols(0, batch))
			for off := batch; off < n; off += batch {
				eng.IncorporateData(blocks[c.Rank()].SliceCols(off, off+batch))
			}
			if c.Rank() == 0 {
				mu.Lock()
				s = append([]float64(nil), eng.SingularValues()...)
				mu.Unlock()
			}
		})
		return testutil.CloseSlices(s, serial.SingularValues(), 1e-5*(1+serial.SingularValues()[0]))
	}
	cfg := &quick.Config{MaxCount: 15, Rand: testutil.NewRand(10)}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestParallelImplementsDecomposer(t *testing.T) {
	rng := testutil.NewRand(11)
	a := testutil.RandomDense(24, 8, rng)
	blocks := splitRows(a, 2)
	mpi.MustRun(2, func(c *mpi.Comm) {
		var d Decomposer = NewParallel(c, Options{K: 2, ForgetFactor: 1, R1: 8})
		d = d.Initialize(blocks[c.Rank()].SliceCols(0, 4))
		d = d.IncorporateData(blocks[c.Rank()].SliceCols(4, 8))
		if d.Iterations() != 1 || d.Modes().Cols() != 2 || len(d.SingularValues()) != 2 {
			t.Error("Decomposer contract violated by Parallel")
		}
	})
}

func TestGatherModesAfterStreaming(t *testing.T) {
	// GatherModes must reflect the *current* state, not the initial one.
	rng := testutil.NewRand(12)
	a, _ := testutil.RandomLowRank(40, 12, 3, 1e-8, rng)
	blocks := splitRows(a, 2)
	var mu sync.Mutex
	var first, second *mat.Dense
	mpi.MustRun(2, func(c *mpi.Comm) {
		eng := NewParallel(c, Options{K: 3, ForgetFactor: 1, R1: 12})
		eng.Initialize(blocks[c.Rank()].SliceCols(0, 6))
		g1 := eng.GatherModes()
		eng.IncorporateData(blocks[c.Rank()].SliceCols(6, 12))
		g2 := eng.GatherModes()
		if c.Rank() == 0 {
			mu.Lock()
			first, second = g1, g2
			mu.Unlock()
		}
	})
	if mat.EqualApprox(first, second, 1e-14) {
		t.Fatal("modes unchanged by streaming update")
	}
	testutil.CheckOrthonormalColumns(t, "after streaming", second, 1e-8)
}

func TestParallelUnevenRowBlocks(t *testing.T) {
	// 41 rows over 4 ranks: 11, 10, 10, 10 — exercises non-uniform slab
	// bookkeeping end to end.
	rng := testutil.NewRand(13)
	a, _ := testutil.RandomLowRank(41, 10, 3, 1e-8, rng)
	opts := Options{K: 3, ForgetFactor: 1, R1: 10}
	modes, s := runParallelStream(t, a, 4, 5, opts)
	serialModes, serialS := apmos.DecomposeSerial(a, 3)
	if !testutil.CloseSlices(s, serialS, 1e-6*(1+serialS[0])) {
		t.Fatalf("values %v vs %v", s, serialS)
	}
	if err := testutil.SubspaceError(serialModes, modes); err > 1e-5 {
		t.Fatalf("subspace error %g", err)
	}
}

// TestParallelModesStayOrthonormalAcrossUpdates is the soak of
// internal/stream's TestModesStayOrthonormalAcrossUpdates on an in-process
// two-rank Parallel engine: the TSQR path must keep the gathered modes
// orthonormal to 1e-10 after every one of 2000 hostile updates.
func TestParallelModesStayOrthonormalAcrossUpdates(t *testing.T) {
	const m, k, b, updates = 512, 16, 8, 2000
	bad, badAt := 0.0, -1
	mpi.MustRun(2, func(c *mpi.Comm) {
		// Every rank draws the same global batches and keeps its half.
		rng := testutil.NewRand(5)
		lo, hi := c.Rank()*m/2, (c.Rank()+1)*m/2
		eng := NewParallel(c, Options{K: k, ForgetFactor: 0.95})
		eng.Initialize(testutil.RandomDense(m, b, rng).SliceRows(lo, hi))
		for i := 0; i < updates; i++ {
			eng.IncorporateData(testutil.HostileBatch(m, b, i, rng).SliceRows(lo, hi))
			u := eng.GatherModes() // nil off rank 0
			if u == nil || badAt >= 0 {
				continue
			}
			if loss := testutil.OrthonormalityLoss(u); !(loss <= 1e-10) {
				bad, badAt = loss, i
			}
		}
	})
	if badAt >= 0 {
		t.Fatalf("update %d: ‖UᵀU−I‖_max = %g", badAt, bad)
	}
}

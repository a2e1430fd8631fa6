package parsvd_test

// Cross-backend conformance: the same snapshot streams driven through
// Serial, Parallel and Distributed must produce the same decomposition —
// spectra within 1e-12 of each other, and the gathered mode matrices of
// the two rank-parallel backends (which run the identical arithmetic on
// the identical row split) bit-for-bit equal by SHA-256 fingerprint. The
// suite also pins the behaviors that make the backends interchangeable
// in practice: Push after Fit continues the same stream, Save→Load→Push
// resumes it across the checkpoint boundary, and context cancellation
// stops a Fit between batches without corrupting or poisoning the state.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	parsvd "goparsvd"

	"goparsvd/internal/launch"
	"goparsvd/internal/mat"
	"goparsvd/internal/testutil"
)

// confTolerance is the cross-backend spectrum agreement bound.
const confTolerance = 1e-12

// confBackends enumerates the execution modes under test. Distributed
// uses 2 ranks to keep fleet spawns fast; Parallel matches it so the two
// rank worlds split rows identically (bit-compatibility).
var confBackends = []struct {
	name    string
	backend parsvd.Backend
	ranks   int
}{
	{"serial", parsvd.Serial, 1},
	{"parallel", parsvd.Parallel, 2},
	{"distributed", parsvd.Distributed, 2},
}

// confTarget is one configuration a conformance table runs on: a backend
// with extra options such as WithShards.
type confTarget struct {
	name    string
	backend parsvd.Backend
	ranks   int
	extra   []parsvd.Option
}

// withConfBackends appends every confBackends entry to targets.
func withConfBackends(targets ...confTarget) []confTarget {
	for _, b := range confBackends {
		targets = append(targets, confTarget{name: b.name, backend: b.backend, ranks: b.ranks})
	}
	return targets
}

// confMatrix is the shared deterministic snapshot matrix: 64 rows, 24
// snapshot columns, numerical rank 6 plus tiny noise so the retained
// spectrum is well separated from the discarded tail.
func confMatrix() *parsvd.Matrix {
	a, _ := testutil.RandomLowRank(64, 24, 6, 1e-10, testutil.NewRand(42))
	return a
}

// confWorkload is a small deterministic Burgers workload sized for the
// 2-rank worlds above (global rows = 64·2).
func confWorkload() parsvd.Workload {
	w := parsvd.DefaultWorkload()
	w.RowsPerRank = 64
	w.Snapshots = 24
	w.InitBatch = 8
	w.Batch = 8
	w.K = 6
	return w
}

// confStreams builds the three Source flavors over equivalent data. Each
// entry constructs a fresh Source per call (sources are single-use).
var confStreams = []struct {
	name   string
	source func(t *testing.T) parsvd.Source
}{
	{"FromMatrix", func(t *testing.T) parsvd.Source {
		return parsvd.FromMatrix(confMatrix(), 8)
	}},
	{"FromBatches", func(t *testing.T) parsvd.Source {
		a, pos := confMatrix(), 0
		return parsvd.FromBatches(func() (*parsvd.Matrix, error) {
			if pos >= a.Cols() {
				return nil, io.EOF
			}
			end := pos + 8
			if end > a.Cols() {
				end = a.Cols()
			}
			b := a.SliceCols(pos, end)
			pos = end
			return b, nil
		})
	}},
	{"FromWorkload", func(t *testing.T) parsvd.Source {
		src, err := parsvd.FromWorkload(confWorkload(), 2)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}},
}

// newConfSVD builds one backend's SVD with the shared conformance
// options and any extra ones.
func newConfSVD(t *testing.T, backend parsvd.Backend, ranks int, extra ...parsvd.Option) *parsvd.SVD {
	t.Helper()
	opts := []parsvd.Option{
		parsvd.WithModes(6),
		parsvd.WithForgetFactor(0.95),
		parsvd.WithBackend(backend),
	}
	if backend != parsvd.Serial {
		opts = append(opts, parsvd.WithRanks(ranks))
	}
	opts = append(opts, extra...)
	svd, err := parsvd.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svd.Close() })
	return svd
}

func maxSpectrumDiff(t *testing.T, a, b []float64) float64 {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("spectrum lengths differ: %d vs %d", len(a), len(b))
	}
	var max float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}

func skipWithoutFleet(t *testing.T) {
	t.Helper()
	if testing.Short() && os.Getenv("CI") == "" {
		t.Skip("short mode: skipping multi-process conformance")
	}
}

// TestConformanceFit: every stream through every backend; spectra within
// 1e-12 pairwise, parallel and distributed modes bit-identical by hash.
func TestConformanceFit(t *testing.T) {
	skipWithoutFleet(t)
	for _, stream := range confStreams {
		t.Run(stream.name, func(t *testing.T) {
			results := make(map[string]*parsvd.Result)
			for _, b := range confBackends {
				svd := newConfSVD(t, b.backend, b.ranks)
				res, err := svd.Fit(context.Background(), stream.source(t))
				if err != nil {
					t.Fatalf("%s: %v", b.name, err)
				}
				if res.Snapshots != 24 || res.Iterations != 2 {
					t.Fatalf("%s counters: snapshots=%d iterations=%d, want 24/2",
						b.name, res.Snapshots, res.Iterations)
				}
				results[b.name] = res
			}
			for _, b := range confBackends[1:] {
				if d := maxSpectrumDiff(t, results["serial"].Singular, results[b.name].Singular); d > confTolerance {
					t.Errorf("serial vs %s spectrum deviates by %g, want <= %g", b.name, d, confTolerance)
				}
			}
			// The two rank-parallel worlds ran the identical split of the
			// identical batches: gathered modes agree bit for bit.
			par, dist := results["parallel"], results["distributed"]
			if dist.ModesSHA256 == "" {
				t.Fatal("distributed result carries no modes fingerprint")
			}
			if want := launch.HashModes(par.Modes); dist.ModesSHA256 != want {
				t.Errorf("distributed modes hash %s != parallel modes hash %s", dist.ModesSHA256, want)
			}
		})
	}
}

// TestDistributedResultIsOneRoundTrip: a Distributed Result costs one
// lockstep exchange with the fleet — MODES-SHA, whose rank 0 reply carries
// the spectrum beside the modes fingerprint — and matches the Parallel
// backend's Result of the same pushes bit for bit.
func TestDistributedResultIsOneRoundTrip(t *testing.T) {
	skipWithoutFleet(t)
	a := confMatrix()
	par := newConfSVD(t, parsvd.Parallel, 2)
	dist := newConfSVD(t, parsvd.Distributed, 2)
	for off := 0; off+8 <= a.Cols(); off += 8 {
		for _, svd := range []*parsvd.SVD{par, dist} {
			if err := svd.Push(a.SliceCols(off, off+8)); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := par.Result()
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		before := parsvd.DistSessionOps(dist)
		got, err := dist.Result()
		if err != nil {
			t.Fatal(err)
		}
		if n := parsvd.DistSessionOps(dist) - before; n != 1 {
			t.Fatalf("Result %d ran %d session exchanges, want 1", i, n)
		}
		if !testutil.CloseSlices(got.Singular, want.Singular, 0) || got.ModesSHA256 != launch.HashModes(want.Modes) ||
			got.Iterations != want.Iterations || got.Snapshots != want.Snapshots {
			t.Fatalf("Result %d differs from the parallel backend's", i)
		}
	}
}

// TestConformancePushAfterFit: Fit over a prefix then Push the remainder
// must land in exactly the state of one Fit over the whole stream, on
// every backend.
func TestConformancePushAfterFit(t *testing.T) {
	skipWithoutFleet(t)
	a := confMatrix()
	for _, b := range confBackends {
		t.Run(b.name, func(t *testing.T) {
			whole := newConfSVD(t, b.backend, b.ranks)
			wres, err := whole.Fit(context.Background(), parsvd.FromMatrix(a, 8))
			if err != nil {
				t.Fatal(err)
			}

			split := newConfSVD(t, b.backend, b.ranks)
			if _, err := split.Fit(context.Background(), parsvd.FromMatrix(a.SliceCols(0, 16), 8)); err != nil {
				t.Fatal(err)
			}
			if err := split.Push(a.SliceCols(16, 24)); err != nil {
				t.Fatal(err)
			}
			sres, err := split.Result()
			if err != nil {
				t.Fatal(err)
			}
			if !testutil.CloseSlices(wres.Singular, sres.Singular, 0) {
				t.Fatalf("Fit+Push spectrum differs from one-shot Fit:\n%v\n%v", wres.Singular, sres.Singular)
			}
			if wres.ModesSHA256 != sres.ModesSHA256 {
				t.Fatal("Fit+Push modes fingerprint differs from one-shot Fit")
			}
			if st := split.Stats(); st.Snapshots != 24 || st.Rows != 64 {
				t.Fatalf("Stats after Fit+Push: %+v", st)
			}
		})
	}
}

// TestConformanceSaveLoadPushResume: checkpoint mid-stream on each
// backend, resume via Load (always serial), push the remainder, and land
// within 1e-12 of the uninterrupted serial run.
func TestConformanceSaveLoadPushResume(t *testing.T) {
	skipWithoutFleet(t)
	a := confMatrix()

	refSVD := newConfSVD(t, parsvd.Serial, 1)
	ref, err := refSVD.Fit(context.Background(), parsvd.FromMatrix(a, 8))
	if err != nil {
		t.Fatal(err)
	}

	for _, b := range confBackends {
		t.Run(b.name, func(t *testing.T) {
			svd := newConfSVD(t, b.backend, b.ranks)
			if _, err := svd.Fit(context.Background(), parsvd.FromMatrix(a.SliceCols(0, 16), 8)); err != nil {
				t.Fatal(err)
			}
			var ckpt bytes.Buffer
			if err := svd.Save(&ckpt); err != nil {
				t.Fatal(err)
			}
			// The original keeps streaming after the gather — Save is a
			// snapshot, not a terminal operation.
			if err := svd.Push(a.SliceCols(16, 24)); err != nil {
				t.Fatalf("push after Save: %v", err)
			}

			restored, err := parsvd.Load(&ckpt)
			if err != nil {
				t.Fatal(err)
			}
			rst := restored.Stats()
			if rst.Snapshots != 16 || rst.Rows != 64 || rst.K != 6 {
				t.Fatalf("restored Stats: %+v", rst)
			}
			if err := restored.Push(a.SliceCols(16, 24)); err != nil {
				t.Fatal(err)
			}
			res, err := restored.Result()
			if err != nil {
				t.Fatal(err)
			}
			if res.Snapshots != 24 {
				t.Fatalf("resumed snapshots = %d, want 24", res.Snapshots)
			}
			if d := maxSpectrumDiff(t, ref.Singular, res.Singular); d > confTolerance {
				t.Errorf("%s resume deviates from the uninterrupted serial run by %g, want <= %g",
					b.name, d, confTolerance)
			}
		})
	}
}

// TestConformanceContextCancellation: a pre-canceled context stops Fit
// before any batch (for Distributed, before any fleet spawns), and a
// mid-stream cancellation returns ctx.Err() with the state as of the
// last completed batch intact and the engine not poisoned.
func TestConformanceContextCancellation(t *testing.T) {
	skipWithoutFleet(t)
	a := confMatrix()
	for _, b := range confBackends {
		t.Run(b.name, func(t *testing.T) {
			pre := newConfSVD(t, b.backend, b.ranks)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := pre.Fit(ctx, parsvd.FromMatrix(a, 8)); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-canceled Fit: %v, want context.Canceled", err)
			}
			if b.backend == parsvd.Distributed {
				if pids := parsvd.DistWorkerPIDs(pre); pids != nil {
					t.Fatalf("pre-canceled Fit spawned a fleet: %v", pids)
				}
			}

			svd := newConfSVD(t, b.backend, b.ranks)
			ctx2, cancel2 := context.WithCancel(context.Background())
			defer cancel2()
			calls := 0
			src := parsvd.FromBatches(func() (*parsvd.Matrix, error) {
				calls++
				if calls == 2 {
					// Cancel while handing out the second batch: Fit ingests
					// it, then observes the cancellation at the loop top.
					cancel2()
				}
				return a.SliceCols((calls-1)*8, calls*8), nil
			})
			if _, err := svd.Fit(ctx2, src); !errors.Is(err, context.Canceled) {
				t.Fatalf("mid-stream cancellation: %v, want context.Canceled", err)
			}
			if st := svd.Stats(); st.Snapshots != 16 {
				t.Fatalf("snapshots after cancellation = %d, want 16 (two completed batches)", st.Snapshots)
			}
			// Not poisoned: the stream continues and finishes normally.
			if err := svd.Push(a.SliceCols(16, 24)); err != nil {
				t.Fatalf("push after cancellation: %v", err)
			}
			res, err := svd.Result()
			if err != nil {
				t.Fatalf("result after cancellation: %v", err)
			}
			if res.Snapshots != 24 {
				t.Fatalf("resumed snapshots = %d, want 24", res.Snapshots)
			}
		})
	}
}

// TestConformanceRejectsNonFinite: every bad push and sketch pair —
// non-finite values, a wrong row count, a first batch too short to split
// across the ranks, an empty or mismatched pair — is refused identically
// on every backend and on a sharded fit, as a plain validation error that
// leaves the SVD healthy, before any engine (or worker rank) sees the
// data. The next good push succeeds after each.
func TestConformanceRejectsNonFinite(t *testing.T) {
	skipWithoutFleet(t)
	a := confMatrix()
	m := a.Rows()
	withValue := func(b *parsvd.Matrix, v float64) *parsvd.Matrix {
		b = b.Clone()
		b.Set(1, 2, v)
		return b
	}
	q, sk, err := parsvd.Sketch(a.SliceCols(8, 16), parsvd.SketchConfig{MaxRank: 4})
	if err != nil || q == nil {
		t.Fatalf("sketch: q = %v, err = %v", q, err)
	}
	l := q.Cols()
	// Each case runs on a seeded SVD and must be refused with an error
	// containing want.
	cases := []struct {
		name, want string
		push       func(svd *parsvd.SVD) error
	}{
		{"NaN", "non-finite value (NaN)", func(svd *parsvd.SVD) error {
			return svd.Push(withValue(a.SliceCols(8, 16), math.NaN()))
		}},
		{"+Inf", "non-finite value (+Inf)", func(svd *parsvd.SVD) error {
			return svd.Push(withValue(a.SliceCols(8, 16), math.Inf(1)))
		}},
		{"wrong-rows", "rows", func(svd *parsvd.SVD) error {
			return svd.Push(parsvd.NewMatrix(m-1, 8))
		}},
		{"sketch-empty", "empty sketch factor pair", func(svd *parsvd.SVD) error {
			return svd.PushSketch(nil, nil)
		}},
		{"sketch-inner", "mismatched inner dimension", func(svd *parsvd.SVD) error {
			return svd.PushSketch(q, parsvd.NewMatrix(l+1, 8))
		}},
		{"sketch-wrong-rows", "rows", func(svd *parsvd.SVD) error {
			return svd.PushSketch(parsvd.NewMatrix(m-1, l), sk)
		}},
		{"sketch-NaN", "non-finite value (NaN)", func(svd *parsvd.SVD) error {
			return svd.PushSketch(q, withValue(sk, math.NaN()))
		}},
	}
	for _, b := range withConfBackends(confTarget{"parallel-2-shards", parsvd.Parallel, 2, []parsvd.Option{parsvd.WithShards(2)}}) {
		t.Run(b.name, func(t *testing.T) {
			svd := newConfSVD(t, b.backend, b.ranks, b.extra...)
			good := a.SliceCols(0, 8)
			// refuse checks one rejection, then that the stream continues.
			refuse := func(name, want string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("%s: err = %v, want a rejection containing %q", name, err, want)
				}
				if errors.Is(err, parsvd.ErrEngineFailed) {
					t.Fatalf("%s poisoned the engine: %v", name, err)
				}
				if err := svd.Push(good); err != nil {
					t.Fatalf("push after the %s rejection: %v", name, err)
				}
			}
			// A first batch of one row cannot give two ranks a row each;
			// the good push after it seeds the SVD.
			if b.ranks > 1 {
				refuse("split", "cannot be split across 2 ranks", svd.Push(parsvd.NewMatrix(1, 8)))
			} else if err := svd.Push(good); err != nil {
				t.Fatal(err)
			}
			for _, c := range cases {
				refuse(c.name, c.want, c.push(svd))
			}
		})
	}
}

// TestConformanceRejectsOverflowingSketchPair: a sketch pair of finite
// factors whose product overflows is refused on every backend with the
// same "non-finite value (+Inf)" rejection, as a plain validation error
// that leaves the SVD healthy — the Distributed backend before any frame
// reaches a worker.
func TestConformanceRejectsOverflowingSketchPair(t *testing.T) {
	skipWithoutFleet(t)
	a := confMatrix()
	q := parsvd.NewMatrix(a.Rows(), 2)
	sk := parsvd.NewMatrix(2, 2)
	for i := 0; i < q.Rows(); i++ {
		q.Set(i, 0, 1e200)
		q.Set(i, 1, 1e200)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			sk.Set(i, j, 1e200)
		}
	}
	for _, b := range confBackends {
		t.Run(b.name, func(t *testing.T) {
			svd := newConfSVD(t, b.backend, b.ranks)
			if err := svd.Push(a.SliceCols(0, 8)); err != nil {
				t.Fatal(err)
			}
			err := svd.PushSketch(q, sk)
			if err == nil || !strings.Contains(err.Error(), "non-finite value (+Inf)") {
				t.Fatalf("overflowing pair: err = %v, want a non-finite (+Inf) rejection", err)
			}
			if errors.Is(err, parsvd.ErrEngineFailed) {
				t.Fatalf("overflowing pair poisoned the engine: %v", err)
			}
			if err := svd.Push(a.SliceCols(8, 16)); err != nil {
				t.Fatalf("push after the rejected pair: %v", err)
			}
			res, err := svd.Result()
			if err != nil {
				t.Fatal(err)
			}
			if i := mat.FirstNonFinite(res.Singular); i >= 0 {
				t.Fatalf("spectrum holds %g after the rejected pair", res.Singular[i])
			}
		})
	}
}

// TestDistributedWireSmoke is the wire-fed fleet gate:
// a persistent 4-rank worker fleet fed the deterministic workload over
// the wire, batch by batch through Push, must match the in-process serial
// reference within 1e-12 — and the fleet must survive the whole stream as
// one session (one spawn, many pushes).
func TestDistributedWireSmoke(t *testing.T) {
	skipWithoutFleet(t)
	const ranks = 4
	w := parsvd.DefaultWorkload() // 256 rows/rank · 4 ranks, 96 snapshots

	opts := []parsvd.Option{
		parsvd.WithModes(w.K),
		parsvd.WithForgetFactor(w.FF),
	}
	ser, err := parsvd.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	serSrc, err := parsvd.FromWorkload(w, ranks)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ser.Fit(context.Background(), serSrc)
	if err != nil {
		t.Fatal(err)
	}

	dist, err := parsvd.New(append(opts,
		parsvd.WithBackend(parsvd.Distributed), parsvd.WithRanks(ranks))...)
	if err != nil {
		t.Fatal(err)
	}
	defer dist.Close()
	src, err := parsvd.FromWorkload(w, ranks)
	if err != nil {
		t.Fatal(err)
	}
	var pids []int
	for {
		b, err := src.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := dist.Push(b); err != nil {
			t.Fatal(err)
		}
		if pids == nil {
			pids = parsvd.DistWorkerPIDs(dist)
		} else if got := parsvd.DistWorkerPIDs(dist); !equalInts(pids, got) {
			t.Fatalf("fleet was respawned mid-stream: %v -> %v", pids, got)
		}
	}
	if len(pids) != ranks {
		t.Fatalf("fleet has %d workers, want %d", len(pids), ranks)
	}

	res, err := dist.Result()
	if err != nil {
		t.Fatal(err)
	}
	if d := maxSpectrumDiff(t, want.Singular, res.Singular); d > confTolerance {
		t.Fatalf("wire-fed 4-rank spectrum deviates from serial by %g, want <= %g", d, confTolerance)
	}
	st := dist.Stats()
	if st.Rows != w.RowsPerRank*ranks || st.Snapshots != w.Snapshots ||
		st.Messages == 0 || st.Bytes == 0 {
		t.Fatalf("distributed stats incomplete: %+v", st)
	}
	t.Logf("dist-smoke: %d snapshots into a %d-rank fleet (%d msgs, %d bytes), max deviation %g",
		st.Snapshots, ranks, st.Messages, st.Bytes,
		maxSpectrumDiff(t, want.Singular, res.Singular))
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

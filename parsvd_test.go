package parsvd_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	parsvd "goparsvd"

	"goparsvd/internal/launch"
	"goparsvd/internal/mat"
	"goparsvd/internal/ncio"
	"goparsvd/internal/testutil"
)

// TestNewRejectsInvalidOptions is the acceptance statement that the
// public constructor path is error-based: every misconfiguration comes
// back as an error, never a panic.
func TestNewRejectsInvalidOptions(t *testing.T) {
	cases := map[string][]parsvd.Option{
		"zero modes":            {parsvd.WithModes(0)},
		"negative modes":        {parsvd.WithModes(-3)},
		"zero forget factor":    {parsvd.WithForgetFactor(0)},
		"ff above one":          {parsvd.WithForgetFactor(1.5)},
		"NaN forget factor":     {parsvd.WithForgetFactor(math.NaN())},
		"unknown backend":       {parsvd.WithBackend(parsvd.Backend(42))},
		"zero ranks":            {parsvd.WithRanks(0)},
		"serial multi-rank":     {parsvd.WithRanks(3)},
		"nil option":            {nil},
		"nil checkpoint":        {parsvd.WithCheckpoint(nil)},
		"bad rla":               {parsvd.WithLowRank(parsvd.RLA{Oversample: -1})},
		"two rla configs":       {parsvd.WithLowRank(parsvd.RLA{}, parsvd.RLA{})},
		"transport on serial":   {parsvd.WithTransport(parsvd.TransportConfig{})},
		"transport on parallel": {parsvd.WithBackend(parsvd.Parallel), parsvd.WithTransport(parsvd.TransportConfig{})},
		"negative transport timeout": {
			parsvd.WithBackend(parsvd.Distributed), parsvd.WithTransport(parsvd.TransportConfig{Timeout: -1})},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			svd, err := parsvd.New(opts...)
			if err == nil {
				t.Fatalf("New(%s) did not error (got backend %v)", name, svd.Backend())
			}
		})
	}
}

// TestSerialFitMatchesBatchSVD: streaming a low-rank matrix with ff = 1
// through the facade reproduces the one-shot truncated SVD spectrum.
func TestSerialFitMatchesBatchSVD(t *testing.T) {
	rng := testutil.NewRand(3)
	a, _ := testutil.RandomLowRank(120, 40, 4, 0, rng)

	svd, err := parsvd.New(parsvd.WithModes(4), parsvd.WithForgetFactor(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := svd.Fit(context.Background(), parsvd.FromMatrix(a, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshots != 40 || res.Iterations != 3 {
		t.Fatalf("counters: snapshots=%d iterations=%d", res.Snapshots, res.Iterations)
	}
	_, want, _, err := parsvd.TruncatedSVD(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.CloseSlices(res.Singular, want, 1e-8) {
		t.Fatalf("spectrum: got %v want %v", res.Singular, want)
	}
	if r, c := res.Modes.Dims(); r != 120 || c != 4 {
		t.Fatalf("modes: %dx%d", r, c)
	}
}

// TestPushMatchesFit: driving batches through Push yields the same state
// as Fit over the equivalent source.
func TestPushMatchesFit(t *testing.T) {
	rng := testutil.NewRand(4)
	a := testutil.RandomDense(60, 24, rng)

	fit, _ := parsvd.New(parsvd.WithModes(5))
	resFit, err := fit.Fit(context.Background(), parsvd.FromMatrix(a, 8))
	if err != nil {
		t.Fatal(err)
	}

	push, _ := parsvd.New(parsvd.WithModes(5))
	for off := 0; off < 24; off += 8 {
		if err := push.Push(a.SliceCols(off, off+8)); err != nil {
			t.Fatal(err)
		}
	}
	resPush, err := push.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.CloseSlices(resFit.Singular, resPush.Singular, 0) {
		t.Fatalf("push/fit spectra differ: %v vs %v", resFit.Singular, resPush.Singular)
	}
	if !mat.EqualApprox(resFit.Modes, resPush.Modes, 0) {
		t.Fatal("push/fit modes differ")
	}
}

// TestParallelMatchesSerial: the in-process parallel backend agrees with
// the serial backend on the same global batches.
func TestParallelMatchesSerial(t *testing.T) {
	rng := testutil.NewRand(5)
	a, _ := testutil.RandomLowRank(96, 30, 5, 1e-9, rng)

	serial, _ := parsvd.New(parsvd.WithModes(5), parsvd.WithForgetFactor(0.95))
	sres, err := serial.Fit(context.Background(), parsvd.FromMatrix(a, 10))
	if err != nil {
		t.Fatal(err)
	}

	par, err := parsvd.New(parsvd.WithModes(5), parsvd.WithForgetFactor(0.95),
		parsvd.WithBackend(parsvd.Parallel), parsvd.WithRanks(4))
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	pres, err := par.Fit(context.Background(), parsvd.FromMatrix(a, 10))
	if err != nil {
		t.Fatal(err)
	}
	if pres.Snapshots != sres.Snapshots || pres.Iterations != sres.Iterations {
		t.Fatalf("counters differ: %+v vs %+v", pres, sres)
	}
	if !testutil.CloseSlices(sres.Singular, pres.Singular, 1e-6) {
		t.Fatalf("spectra differ: %v vs %v", sres.Singular, pres.Singular)
	}
	if pr, pc := pres.Modes.Dims(); pr != 96 || pc != 5 {
		t.Fatalf("gathered modes: %dx%d", pr, pc)
	}
	st := par.Stats()
	if st.Ranks != 4 || st.Messages == 0 {
		t.Fatalf("parallel stats not counted: %+v", st)
	}
}

// TestParallelPushAndIncrementalResult: Push works on the parallel
// backend too, and Result can be read mid-stream without corrupting the
// continuation.
func TestParallelPushAndIncrementalResult(t *testing.T) {
	rng := testutil.NewRand(6)
	a := testutil.RandomDense(64, 18, rng)

	par, err := parsvd.New(parsvd.WithModes(4), parsvd.WithBackend(parsvd.Parallel),
		parsvd.WithRanks(3))
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	if err := par.Push(a.SliceCols(0, 6)); err != nil {
		t.Fatal(err)
	}
	mid, err := par.Result()
	if err != nil {
		t.Fatal(err)
	}
	if mid.Snapshots != 6 {
		t.Fatalf("mid snapshots = %d", mid.Snapshots)
	}
	if err := par.Push(a.SliceCols(6, 18)); err != nil {
		t.Fatal(err)
	}
	fin, err := par.Result()
	if err != nil {
		t.Fatal(err)
	}
	if fin.Snapshots != 18 || fin.Iterations != 1 {
		t.Fatalf("final counters: %+v", fin)
	}

	// A mismatched batch is a caller error, reported without killing the
	// engine.
	if err := par.Push(testutil.RandomDense(10, 3, rng)); err == nil {
		t.Fatal("row-mismatched Push did not error")
	}
	if err := par.Push(a.SliceCols(0, 2)); err != nil {
		t.Fatalf("engine unusable after rejected batch: %v", err)
	}
}

// TestSaveLoadRoundTrip: serial Save → Load → continue matches the
// uninterrupted run.
func TestSaveLoadRoundTrip(t *testing.T) {
	rng := testutil.NewRand(7)
	a := testutil.RandomDense(40, 20, rng)

	orig, _ := parsvd.New(parsvd.WithModes(3), parsvd.WithForgetFactor(0.9))
	if err := orig.Push(a.SliceCols(0, 10)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := parsvd.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Backend() != parsvd.Serial {
		t.Fatalf("restored backend = %v", restored.Backend())
	}
	if err := orig.Push(a.SliceCols(10, 20)); err != nil {
		t.Fatal(err)
	}
	if err := restored.Push(a.SliceCols(10, 20)); err != nil {
		t.Fatal(err)
	}
	ro, _ := orig.Result()
	rr, _ := restored.Result()
	if !testutil.CloseSlices(ro.Singular, rr.Singular, 0) {
		t.Fatalf("restored run diverged: %v vs %v", ro.Singular, rr.Singular)
	}
	if !mat.EqualApprox(ro.Modes, rr.Modes, 0) {
		t.Fatal("restored modes diverged")
	}
}

// TestParallelSaveLoadsAsGlobalState: a parallel run's checkpoint holds
// the gathered global modes and resumes as a serial engine.
func TestParallelSaveLoadsAsGlobalState(t *testing.T) {
	rng := testutil.NewRand(8)
	a := testutil.RandomDense(48, 12, rng)

	par, err := parsvd.New(parsvd.WithModes(4), parsvd.WithBackend(parsvd.Parallel),
		parsvd.WithRanks(4))
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	if err := par.Push(a); err != nil {
		t.Fatal(err)
	}
	want, err := par.Result()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := par.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := parsvd.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !mat.EqualApprox(want.Modes, got.Modes, 0) {
		t.Fatal("checkpointed global modes differ from gathered modes")
	}
	if !testutil.CloseSlices(want.Singular, got.Singular, 0) {
		t.Fatal("checkpointed spectrum differs")
	}
}

// TestWithCheckpointWritesOnFit: Fit serializes the final state to the
// configured writer.
func TestWithCheckpointWritesOnFit(t *testing.T) {
	rng := testutil.NewRand(9)
	a := testutil.RandomDense(30, 12, rng)
	var buf bytes.Buffer
	svd, err := parsvd.New(parsvd.WithModes(3), parsvd.WithCheckpoint(&buf))
	if err != nil {
		t.Fatal(err)
	}
	want, err := svd.Fit(context.Background(), parsvd.FromMatrix(a, 4))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := parsvd.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !mat.EqualApprox(want.Modes, got.Modes, 0) {
		t.Fatal("checkpoint state differs from Fit result")
	}
}

// TestFitContextCancellation: a canceled context stops the batch loop.
func TestFitContextCancellation(t *testing.T) {
	svd, _ := parsvd.New(parsvd.WithModes(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := testutil.NewRand(10)
	_, err := svd.Fit(ctx, parsvd.FromMatrix(testutil.RandomDense(10, 6, rng), 2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFromNetCDF: a (time × lat × lon) container variable streams as a
// (lat·lon × time) snapshot matrix, batch by batch.
func TestFromNetCDF(t *testing.T) {
	const (
		steps = 9
		nlat  = 4
		nlon  = 3
	)
	path := filepath.Join(t.TempDir(), "field.gnc")
	w, err := ncio.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []error{
		w.DefineDim("time", steps), w.DefineDim("lat", nlat), w.DefineDim("lon", nlon),
		w.DefineVar("p", []string{"time", "lat", "lon"}, nil), w.EndDef(),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	rows := nlat * nlon
	want := parsvd.NewMatrix(rows, steps)
	for s := 0; s < steps; s++ {
		plane := make([]float64, rows)
		for r := range plane {
			plane[r] = float64(s*100 + r)
			want.Set(r, s, plane[r])
		}
		if err := w.WriteSlab("p", []int64{int64(s), 0, 0}, []int64{1, nlat, nlon}, plane); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	src, err := parsvd.FromNetCDF(path, "p", 4)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*parsvd.Matrix, 0, 3)
	for {
		b, err := src.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b)
	}
	if len(got) != 3 || got[0].Cols() != 4 || got[2].Cols() != 1 {
		t.Fatalf("batch shapes wrong: %d batches", len(got))
	}
	if !mat.EqualApprox(parsvd.HStack(got...), want, 0) {
		t.Fatal("NetCDF source misread the field")
	}

	if _, err := parsvd.FromNetCDF(path, "missing", 4); err == nil {
		t.Fatal("unknown variable did not error")
	}
	if _, err := parsvd.FromNetCDF(filepath.Join(t.TempDir(), "nope.gnc"), "p", 4); err == nil {
		t.Fatal("missing file did not error")
	}
}

// TestDistributedRejectsWrongUsage: the operations that remain invalid on
// the Distributed backend — reads before any data, batches too short to
// scatter, projection utilities — are errors caught before a single
// worker process is spawned, and they do not poison the SVD.
func TestDistributedRejectsWrongUsage(t *testing.T) {
	svd, err := parsvd.New(parsvd.WithBackend(parsvd.Distributed), parsvd.WithRanks(4))
	if err != nil {
		t.Fatal(err)
	}
	defer svd.Close()
	rng := testutil.NewRand(11)
	if _, err := svd.Result(); err == nil {
		t.Fatal("Result before any data did not error")
	}
	if err := svd.Save(io.Discard); err == nil {
		t.Fatal("Save before any data did not error")
	}
	// 2 rows cannot be row-scattered across 4 ranks.
	if err := svd.Push(testutil.RandomDense(2, 3, rng)); err == nil {
		t.Fatal("Push with fewer rows than ranks did not error")
	}
	if _, err := svd.Coefficients(testutil.RandomDense(4, 2, rng)); err == nil {
		t.Fatal("Coefficients on Distributed did not error")
	}
	// None of the rejections above may have poisoned the handle.
	if err := svd.Push(testutil.RandomDense(2, 3, rng)); err == nil ||
		errors.Is(err, parsvd.ErrEngineFailed) {
		t.Fatalf("second rejected Push: %v, want a plain validation error", err)
	}
}

// TestDistributedMatchesParallel runs the real multi-process TCP backend
// on the deterministic workload and cross-checks spectrum and modes hash
// against the in-process parallel backend on the same Source. Skipped in
// -short mode (it spawns worker processes).
func TestDistributedMatchesParallel(t *testing.T) {
	if testing.Short() && os.Getenv("CI") == "" {
		t.Skip("short mode: skipping multi-process run")
	}
	const ranks = 2
	w := parsvd.DefaultWorkload()
	w.RowsPerRank = 64
	w.Snapshots = 24
	w.InitBatch = 8
	w.Batch = 8
	w.K = 4

	dist, err := parsvd.New(parsvd.WithBackend(parsvd.Distributed), parsvd.WithRanks(ranks),
		parsvd.WithModes(w.K), parsvd.WithForgetFactor(w.FF))
	if err != nil {
		t.Fatal(err)
	}
	defer dist.Close()
	src, err := parsvd.FromWorkload(w, ranks)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := dist.Fit(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if dres.ModesSHA256 == "" {
		t.Fatal("distributed result carries no modes fingerprint")
	}
	if dres.Iterations != 2 || dres.Snapshots != 24 {
		t.Fatalf("distributed counters: %+v", dres)
	}
	if st := dist.Stats(); st.Ranks != ranks || st.Bytes == 0 {
		t.Fatalf("distributed stats: %+v", st)
	}

	par, err := parsvd.New(parsvd.WithBackend(parsvd.Parallel), parsvd.WithRanks(ranks),
		parsvd.WithModes(w.K), parsvd.WithForgetFactor(w.FF))
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	src2, err := parsvd.FromWorkload(w, ranks)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := par.Fit(context.Background(), src2)
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.CloseSlices(dres.Singular, pres.Singular, 0) {
		t.Fatalf("TCP and in-process spectra differ:\n%v\n%v", dres.Singular, pres.Singular)
	}
	// The wire-fed fleet and the in-process rank world ran the identical
	// split of the identical batches: the gathered modes agree bit for bit.
	if want := launch.HashModes(pres.Modes); dres.ModesSHA256 != want {
		t.Fatalf("distributed modes hash %s differs from the parallel backend's %s", dres.ModesSHA256, want)
	}
}

// TestExtremeScaleBatches: a finite batch far outside the unit range —
// every entry scaled by c ∈ {1e±160, 1e±200} — is an ordinary batch. The
// spectrum must be c·σ(A) to working precision on every in-process
// backend, with finite modes matching the unscaled fit; squaring such
// entries overflows to Inf or underflows to zero, so every norm and Gram
// on the path has to stay clear of it.
func TestExtremeScaleBatches(t *testing.T) {
	rng := testutil.NewRand(41)
	a := testutil.RandomDense(64, 20, rng)
	fit := func(t *testing.T, b parsvd.Backend, c float64) *parsvd.Result {
		t.Helper()
		opts := []parsvd.Option{parsvd.WithModes(4), parsvd.WithForgetFactor(0.95), parsvd.WithBackend(b)}
		if b == parsvd.Parallel {
			opts = append(opts, parsvd.WithRanks(2))
		}
		svd, err := parsvd.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer svd.Close()
		for off := 0; off < a.Cols(); off += 4 {
			batch := mat.Scale(c, a.SliceCols(off, off+4))
			if err := svd.Push(batch); err != nil {
				t.Fatalf("Push at scale %g: %v", c, err)
			}
		}
		res, err := svd.Result()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, b := range []parsvd.Backend{parsvd.Serial, parsvd.Parallel} {
		ref := fit(t, b, 1)
		for _, c := range []float64{1e160, 1e200, 1e-160, 1e-200} {
			t.Run(fmt.Sprintf("%v/%g", b, c), func(t *testing.T) {
				res := fit(t, b, c)
				for i, s := range res.Singular {
					if d := math.Abs(s/c - ref.Singular[i]); !(d <= 1e-13*ref.Singular[0]) {
						t.Fatalf("σ_%d(c·A)/c = %v, σ_%d(A) = %v (|diff| %g)", i, s/c, i, ref.Singular[i], d)
					}
				}
				if d := maxAbsDiff(res.Modes, ref.Modes); !(d <= 1e-10) {
					t.Fatalf("modes differ from the unscaled fit by %g", d)
				}
			})
		}
	}
}

func maxAbsDiff(x, y *mat.Dense) float64 {
	var d float64
	for i, v := range x.RawData() {
		d = math.Max(d, math.Abs(v-y.RawData()[i]))
		if math.IsNaN(v) {
			return math.NaN()
		}
	}
	return d
}

func TestCompressionRatio(t *testing.T) {
	// 1000×100 at K=5: 100000 / (5000 + 5 + 500) ≈ 18.2.
	got := parsvd.CompressionRatio(1000, 100, 5)
	want := 100000.0 / 5505.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ratio %g, want %g", got, want)
	}
	for _, dims := range [][3]int{{0, 10, 2}, {10, 0, 2}, {10, 10, 0}} {
		if got := parsvd.CompressionRatio(dims[0], dims[1], dims[2]); got != 0 {
			t.Fatalf("CompressionRatio%v = %g, want 0", dims, got)
		}
	}
}

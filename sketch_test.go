package parsvd_test

// Sketched-push conformance and safety: WithSketchedPush must reproduce
// the unsketched decomposition within the documented tolerance across
// every Source flavor and every backend, be exact (to roundoff) when the
// sketch width covers the batch rank, maintain the cross-backend traffic
// counters (PushedBytes / WireBytes / SketchedPushes) consistently, and
// never panic on bad RLA or Sketch options. TestSketchSmoke is the
// sketched-push gate: a 4-rank TCP fleet fed sketched
// pushes must match the unsketched serial reference AND measure a >= 4x
// wire-bytes reduction.

import (
	"context"
	"fmt"
	"io"
	"math"
	"testing"

	parsvd "goparsvd"

	"goparsvd/internal/launch"
	"goparsvd/internal/testutil"
)

// sketchAdaptiveCfg is the adaptive configuration the conformance runs
// use: rank grows until the residual estimate falls below 1e-6·‖batch‖_F.
var sketchAdaptiveCfg = parsvd.SketchConfig{Tol: 1e-6}

// sketchAdaptiveTol is the acceptance bound for the adaptive runs: the
// per-batch compression error is ~Tol·‖batch‖_F (‖batch‖_F = O(1) here),
// accumulated over a handful of batches, with generous headroom for the
// probabilistic residual estimate.
const sketchAdaptiveTol = 1e-4

// sketchStreams mirrors confStreams with 12-column batches, a geometry
// where the adaptive sketch of the shared rank-6 matrix actually
// compresses (L·(M+B) < M·B for L up to 10).
var sketchStreams = []struct {
	name   string
	source func(t *testing.T) parsvd.Source
}{
	{"FromMatrix", func(t *testing.T) parsvd.Source {
		return parsvd.FromMatrix(confMatrix(), 12)
	}},
	{"FromBatches", func(t *testing.T) parsvd.Source {
		a, pos := confMatrix(), 0
		return parsvd.FromBatches(func() (*parsvd.Matrix, error) {
			if pos >= a.Cols() {
				return nil, io.EOF
			}
			end := pos + 12
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

// newSketchSVD builds one backend's SVD with the conformance options,
// optionally sketched, and any extra ones.
func newSketchSVD(t *testing.T, backend parsvd.Backend, ranks int, sketch *parsvd.SketchConfig, extra ...parsvd.Option) *parsvd.SVD {
	t.Helper()
	opts := []parsvd.Option{
		parsvd.WithModes(6),
		parsvd.WithForgetFactor(0.95),
		parsvd.WithBackend(backend),
	}
	if backend != parsvd.Serial {
		opts = append(opts, parsvd.WithRanks(ranks))
	}
	if sketch != nil {
		opts = append(opts, parsvd.WithSketchedPush(*sketch))
	}
	opts = append(opts, extra...)
	svd, err := parsvd.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svd.Close() })
	return svd
}

// TestSketchedFitMatchesUnsketched: every stream flavor through every
// backend, sketched (adaptive rank, Tol 1e-6) against unsketched, spectra
// within the documented tolerance. Batches the sketch cannot compress
// fall through to the raw path — still within tolerance trivially — but
// the FromMatrix geometry is chosen so sketching demonstrably happens.
func TestSketchedFitMatchesUnsketched(t *testing.T) {
	skipWithoutFleet(t)
	for _, stream := range sketchStreams {
		t.Run(stream.name, func(t *testing.T) {
			for _, b := range confBackends {
				t.Run(b.name, func(t *testing.T) {
					plain := newSketchSVD(t, b.backend, b.ranks, nil)
					want, err := plain.Fit(context.Background(), stream.source(t))
					if err != nil {
						t.Fatal(err)
					}
					cfg := sketchAdaptiveCfg
					sketched := newSketchSVD(t, b.backend, b.ranks, &cfg)
					got, err := sketched.Fit(context.Background(), stream.source(t))
					if err != nil {
						t.Fatal(err)
					}
					if got.Snapshots != want.Snapshots {
						t.Fatalf("sketched snapshots = %d, want %d", got.Snapshots, want.Snapshots)
					}
					if d := maxSpectrumDiff(t, want.Singular, got.Singular); d > sketchAdaptiveTol {
						t.Errorf("sketched spectrum deviates from unsketched by %g, want <= %g", d, sketchAdaptiveTol)
					}
					st := sketched.Stats()
					if st.PushedBytes == 0 || st.WireBytes == 0 {
						t.Fatalf("sketched run reports no traffic: %+v", st)
					}
					if stream.name == "FromMatrix" {
						// The chosen geometry compresses: the sketch path must
						// actually have run and saved wire bytes.
						if st.SketchedPushes == 0 {
							t.Fatal("no push traveled sketched on a compressible geometry")
						}
						if st.WireBytes >= st.PushedBytes {
							t.Fatalf("sketched wire bytes %d not below logical pushed bytes %d",
								st.WireBytes, st.PushedBytes)
						}
					}
				})
			}
		})
	}
}

// TestSketchedPushExactWhenRankCovered: when the fixed sketch width
// MaxRank is at least the effective batch rank, the sketch captures the
// whole range and the decomposition matches the unsketched run to
// roundoff, on every backend.
func TestSketchedPushExactWhenRankCovered(t *testing.T) {
	skipWithoutFleet(t)
	// Effectively exactly rank 4 (noise at 1e-13 keeps QR comfortably
	// non-degenerate); MaxRank 8 >= 4 covers it.
	a, _ := testutil.RandomLowRank(64, 48, 4, 1e-13, testutil.NewRand(7))
	cfg := parsvd.SketchConfig{MaxRank: 8}
	for _, b := range confBackends {
		t.Run(b.name, func(t *testing.T) {
			newOpts := func(sketch bool) []parsvd.Option {
				opts := []parsvd.Option{
					parsvd.WithModes(4),
					parsvd.WithBackend(b.backend),
				}
				if b.backend != parsvd.Serial {
					opts = append(opts, parsvd.WithRanks(b.ranks))
				}
				if sketch {
					opts = append(opts, parsvd.WithSketchedPush(cfg))
				}
				return opts
			}
			plain, err := parsvd.New(newOpts(false)...)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()
			want, err := plain.Fit(context.Background(), parsvd.FromMatrix(a, 16))
			if err != nil {
				t.Fatal(err)
			}
			sketched, err := parsvd.New(newOpts(true)...)
			if err != nil {
				t.Fatal(err)
			}
			defer sketched.Close()
			got, err := sketched.Fit(context.Background(), parsvd.FromMatrix(a, 16))
			if err != nil {
				t.Fatal(err)
			}
			if st := sketched.Stats(); st.SketchedPushes != 3 {
				t.Fatalf("sketched pushes = %d, want all 3 batches sketched", st.SketchedPushes)
			}
			if d := maxSpectrumDiff(t, want.Singular, got.Singular); d > 1e-9 {
				t.Errorf("rank-covered sketch deviates by %g, want <= 1e-9 (roundoff)", d)
			}
		})
	}
}

// TestSketchPairsMatchAcrossRankBackends: a raw seeding batch and then
// four PushSketch pairs leave Parallel and Distributed with the same
// spectrum and modes, bit for bit. The facade rebuilds each pair one rank
// block at a time, the blocks the workers form; the two small shapes
// split a product above mat's naive-loop cutoff into blocks at or below
// it, so a rebuild of the whole product rounds otherwise.
func TestSketchPairsMatchAcrossRankBackends(t *testing.T) {
	skipWithoutFleet(t)
	for _, sh := range []struct{ m, l, b, ranks int }{
		{7, 4, 8, 2}, {64, 8, 1, 4}, {4096, 32, 16, 2},
	} {
		t.Run(fmt.Sprintf("M%d-L%d-B%d-%dranks", sh.m, sh.l, sh.b, sh.ranks), func(t *testing.T) {
			rng := testutil.NewRand(5)
			seed := testutil.RandomDense(sh.m, 8, rng)
			var qs, ss [4]*parsvd.Matrix
			for i := range qs {
				qs[i], ss[i] = testutil.RandomDense(sh.m, sh.l, rng), testutil.RandomDense(sh.l, sh.b, rng)
			}
			var res [2]*parsvd.Result
			for i, backend := range []parsvd.Backend{parsvd.Parallel, parsvd.Distributed} {
				svd := newConfSVD(t, backend, sh.ranks)
				if err := svd.Push(seed); err != nil {
					t.Fatal(err)
				}
				for j := range qs {
					if err := svd.PushSketch(qs[j], ss[j]); err != nil {
						t.Fatalf("%v pair %d: %v", backend, j, err)
					}
				}
				var err error
				if res[i], err = svd.Result(); err != nil {
					t.Fatal(err)
				}
			}
			par, dist := res[0], res[1]
			if !testutil.CloseSlices(par.Singular, dist.Singular, 0) {
				t.Errorf("spectra differ:\nparallel    %v\ndistributed %v", par.Singular, dist.Singular)
			}
			if want := launch.HashModes(par.Modes); dist.ModesSHA256 != want {
				t.Errorf("distributed modes hash %s != parallel modes hash %s", dist.ModesSHA256, want)
			}
		})
	}
}

// TestSteadyPushAllocatesNothing: once the engine has taken an update of
// each kind, a Push and a PushSketch on an in-process backend allocate
// nothing: the pair is rebuilt into storage the SVD keeps (M = 4096,
// L = 8, B = 16).
func TestSteadyPushAllocatesNothing(t *testing.T) {
	const m, l, b = 4096, 8, 16
	rng := testutil.NewRand(9)
	batch := testutil.RandomDense(m, b, rng)
	q, sk := testutil.RandomDense(m, l, rng), testutil.RandomDense(l, b, rng)
	for _, c := range []struct {
		name    string
		backend parsvd.Backend
		ranks   int
	}{{"serial", parsvd.Serial, 1}, {"parallel", parsvd.Parallel, 2}} {
		t.Run(c.name, func(t *testing.T) {
			svd := newConfSVD(t, c.backend, c.ranks)
			for _, warm := range []func() error{
				func() error { return svd.Push(batch) },
				func() error { return svd.Push(batch) },
				func() error { return svd.PushSketch(q, sk) },
			} {
				if err := warm(); err != nil {
					t.Fatal(err)
				}
			}
			for _, op := range []struct {
				name string
				push func() error
			}{
				{"Push", func() error { return svd.Push(batch) }},
				{"PushSketch", func() error { return svd.PushSketch(q, sk) }},
			} {
				var err error
				if n := testing.AllocsPerRun(10, func() {
					if e := op.push(); e != nil {
						err = e
					}
				}); n != 0 {
					t.Errorf("steady %s allocates %v times, want 0", op.name, n)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestSketchTrafficCountersAcrossBackends (cross-backend Stats
// consistency): PushedBytes always counts 8·M·B per push, WireBytes
// equals it for raw pushes and the documented compressed size for
// sketched ones, on Serial, Parallel and Distributed alike, and on a
// sharded Distributed fit, whose shards receive the pair as one fleet does.
func TestSketchTrafficCountersAcrossBackends(t *testing.T) {
	skipWithoutFleet(t)
	const m, bcols = 64, 16
	a, _ := testutil.RandomLowRank(m, 2*bcols, 4, 1e-10, testutil.NewRand(11))
	q, s, err := parsvd.Sketch(a.SliceCols(bcols, 2*bcols), parsvd.SketchConfig{MaxRank: 6})
	if err != nil {
		t.Fatal(err)
	}
	if q == nil {
		t.Fatal("sketch of a compressible batch fell back to raw")
	}
	l := q.Cols()
	for _, b := range withConfBackends(confTarget{"distributed-2-shards", parsvd.Distributed, 2, []parsvd.Option{parsvd.WithShards(2)}}) {
		t.Run(b.name, func(t *testing.T) {
			svd := newSketchSVD(t, b.backend, b.ranks, nil, b.extra...)
			st := svd.Stats()
			if st.PushedBytes != 0 || st.WireBytes != 0 || st.SketchedPushes != 0 {
				t.Fatalf("fresh SVD has nonzero traffic counters: %+v", st)
			}
			if err := svd.Push(a.SliceCols(0, bcols)); err != nil {
				t.Fatal(err)
			}
			raw := int64(8 * m * bcols)
			st = svd.Stats()
			if st.PushedBytes != raw || st.WireBytes != raw || st.SketchedPushes != 0 {
				t.Fatalf("after raw push: pushed=%d wire=%d sketched=%d, want %d/%d/0",
					st.PushedBytes, st.WireBytes, st.SketchedPushes, raw, raw)
			}
			if err := svd.PushSketch(q, s); err != nil {
				t.Fatal(err)
			}
			// The documented wire formulas: in-process engines receive one
			// copy of the pair; the distributed scatter ships each rank its
			// row block of Q plus a full replica of S.
			wantWire := raw + 8*int64(l*(m+bcols))
			if b.backend == parsvd.Distributed {
				wantWire = raw + 8*int64(m*l+l*bcols*b.ranks)
			}
			st = svd.Stats()
			if st.PushedBytes != 2*raw || st.WireBytes != wantWire || st.SketchedPushes != 1 {
				t.Fatalf("after sketched push: pushed=%d wire=%d sketched=%d, want %d/%d/1",
					st.PushedBytes, st.WireBytes, st.SketchedPushes, 2*raw, wantWire)
			}
			if st.Snapshots != 2*bcols {
				t.Fatalf("snapshots = %d, want %d", st.Snapshots, 2*bcols)
			}
		})
	}
}

// TestSketchOptionsNeverPanic (the panic-free contract): every bad RLA or
// Sketch configuration reachable from the public surface is a returned
// error, never a panic — including the internal/rla argument checks that
// used to panic.
func TestSketchOptionsNeverPanic(t *testing.T) {
	batch := confMatrix()
	check := func(name string, f func() error) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if err := f(); err == nil {
				t.Fatal("bad configuration accepted without error")
			}
		})
	}
	newErr := func(opts ...parsvd.Option) func() error {
		return func() error { _, err := parsvd.New(opts...); return err }
	}
	check("negative-tol", newErr(parsvd.WithSketchedPush(parsvd.SketchConfig{Tol: -1})))
	check("nan-tol", newErr(parsvd.WithSketchedPush(parsvd.SketchConfig{Tol: math.NaN()})))
	check("negative-maxrank", newErr(parsvd.WithSketchedPush(parsvd.SketchConfig{MaxRank: -3})))
	check("negative-block", newErr(parsvd.WithSketchedPush(parsvd.SketchConfig{Tol: 1e-3, Block: -1})))
	check("two-sketch-configs", newErr(parsvd.WithSketchedPush(parsvd.SketchConfig{MaxRank: 4}, parsvd.SketchConfig{MaxRank: 8})))
	check("negative-oversample", newErr(parsvd.WithLowRank(parsvd.RLA{Oversample: -1})))
	check("negative-power-iters", newErr(parsvd.WithLowRank(parsvd.RLA{PowerIters: -2})))
	check("lowrank-and-sketch-bad-rla", newErr(
		parsvd.WithSketchedPush(), parsvd.WithLowRank(parsvd.RLA{Oversample: -1})))
	check("standalone-sketch-zero-config", func() error {
		_, _, err := parsvd.Sketch(batch, parsvd.SketchConfig{})
		return err
	})
	check("standalone-sketch-nil-batch", func() error {
		_, _, err := parsvd.Sketch(nil, parsvd.SketchConfig{MaxRank: 4})
		return err
	})
	check("standalone-sketch-bad-rla", func() error {
		_, _, err := parsvd.Sketch(batch, parsvd.SketchConfig{MaxRank: 4}, parsvd.RLA{Oversample: -1})
		return err
	})
	check("push-sketch-nil-pair", func() error {
		svd, err := parsvd.New(parsvd.WithModes(4))
		if err != nil {
			return err
		}
		defer svd.Close()
		return svd.PushSketch(nil, nil)
	})
	check("push-sketch-mismatched-inner-dim", func() error {
		svd, err := parsvd.New(parsvd.WithModes(4))
		if err != nil {
			return err
		}
		defer svd.Close()
		q, s, serr := parsvd.Sketch(batch, parsvd.SketchConfig{MaxRank: 6})
		if serr != nil || q == nil {
			t.Fatalf("sketch setup failed: %v", serr)
		}
		return svd.PushSketch(q, s.SliceRows(0, s.Rows()-1))
	})
	// A sketch-configured SVD stays usable: the bad-path probes above must
	// not have corrupted anything global, and a good configuration works.
	svd, err := parsvd.New(parsvd.WithModes(6), parsvd.WithSketchedPush())
	if err != nil {
		t.Fatal(err)
	}
	defer svd.Close()
	if err := svd.Push(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := svd.Result(); err != nil {
		t.Fatal(err)
	}
}

// TestSketchSmoke is the sketched-push gate: a
// 4-rank TCP worker fleet fed through WithSketchedPush must match the
// unsketched serial reference within the adaptive tolerance while
// measuring at least a 4x wire-bytes reduction against the logical
// snapshot volume.
func TestSketchSmoke(t *testing.T) {
	skipWithoutFleet(t)
	const (
		ranks = 4
		rows  = 256 * ranks
		snaps = 192
		batch = 64
	)
	a, _ := testutil.RandomLowRank(rows, snaps, 6, 1e-10, testutil.NewRand(99))
	opts := []parsvd.Option{
		parsvd.WithModes(6),
		parsvd.WithForgetFactor(0.95),
	}
	ser, err := parsvd.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer ser.Close()
	want, err := ser.Fit(context.Background(), parsvd.FromMatrix(a, batch))
	if err != nil {
		t.Fatal(err)
	}

	dist, err := parsvd.New(append(opts,
		parsvd.WithBackend(parsvd.Distributed),
		parsvd.WithRanks(ranks),
		parsvd.WithSketchedPush(parsvd.SketchConfig{Tol: 1e-6, MaxRank: 8}),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	defer dist.Close()
	got, err := dist.Fit(context.Background(), parsvd.FromMatrix(a, batch))
	if err != nil {
		t.Fatal(err)
	}

	if d := maxSpectrumDiff(t, want.Singular, got.Singular); d > sketchAdaptiveTol {
		t.Errorf("sketched 4-rank spectrum deviates from unsketched serial by %g, want <= %g",
			d, sketchAdaptiveTol)
	}
	st := dist.Stats()
	if st.Rows != rows || st.Snapshots != snaps {
		t.Fatalf("sketched distributed stats incomplete: %+v", st)
	}
	if st.SketchedPushes != int64(snaps/batch) {
		t.Fatalf("sketched pushes = %d, want all %d batches sketched", st.SketchedPushes, snaps/batch)
	}
	if st.WireBytes*4 > st.PushedBytes {
		t.Fatalf("wire bytes %d not >= 4x below the logical %d pushed bytes (ratio %.2f)",
			st.WireBytes, st.PushedBytes, float64(st.PushedBytes)/float64(st.WireBytes))
	}
	t.Logf("sketch-smoke: %d snapshots, %d sketched pushes, wire %d vs logical %d bytes (%.1fx reduction), max deviation %g",
		st.Snapshots, st.SketchedPushes, st.WireBytes, st.PushedBytes,
		float64(st.PushedBytes)/float64(st.WireBytes),
		maxSpectrumDiff(t, want.Singular, got.Singular))
}

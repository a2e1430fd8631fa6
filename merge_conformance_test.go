package parsvd_test

// Merge conformance: a fit sharded across 2/4/8 independent engines and
// reduced through the merge tree must match the monolithic serial fit
// ≤ 1e-10 on every Source kind, and the shape of the tree (balanced vs
// left-deep) must change results only within the accumulated error
// bound. These tests are the merge conformance gate.
//
// The fixtures run with forget factor 1.0 and K at least the effective
// rank of the stream: sharding deals batches round-robin across
// independent fits, so a recency weighting (ff < 1) or a lossy per-shard
// truncation would make the monolithic and sharded results legitimately
// different decompositions. Under those conditions the merge is exact
// and the agreement is rounding-level (see README, "Sharded fit &
// merge", for when to shard vs stream).

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	parsvd "goparsvd"

	"goparsvd/internal/testutil"
)

// mergeConfTolerance is the sharded-vs-monolithic agreement bound pinned
// by the ISSUE acceptance criteria.
const mergeConfTolerance = 1e-10

// mergeConfMatrix is exactly rank 6 (no noise floor), so a K = 6
// truncated stream loses nothing and the merge is exact.
func mergeConfMatrix() *parsvd.Matrix {
	a, _ := testutil.RandomLowRank(64, 24, 6, 0, testutil.NewRand(42))
	return a
}

// mergeConfWorkload is the Burgers workload in a no-truncation
// configuration: its spectrum decays too slowly for a K = 6 tail to sit
// below 1e-10, so the merge gate runs it with K = Snapshots. Batches of
// 2 columns give 12 batches — enough to feed all 8 shards.
func mergeConfWorkload() parsvd.Workload {
	w := parsvd.DefaultWorkload()
	w.RowsPerRank = 64
	w.Snapshots = 24
	w.InitBatch = 2
	w.Batch = 2
	w.K = 24
	w.FF = 1.0
	return w
}

// mergeConfStreams builds the three Source flavors with per-kind modes.
var mergeConfStreams = []struct {
	name   string
	k      int
	source func(t *testing.T) parsvd.Source
}{
	{"FromMatrix", 6, func(t *testing.T) parsvd.Source {
		return parsvd.FromMatrix(mergeConfMatrix(), 2)
	}},
	{"FromBatches", 6, func(t *testing.T) parsvd.Source {
		a, pos := mergeConfMatrix(), 0
		return parsvd.FromBatches(func() (*parsvd.Matrix, error) {
			if pos >= a.Cols() {
				return nil, io.EOF
			}
			end := pos + 2
			if end > a.Cols() {
				end = a.Cols()
			}
			b := a.SliceCols(pos, end)
			pos = end
			return b, nil
		})
	}},
	{"FromWorkload", 24, func(t *testing.T) parsvd.Source {
		src, err := parsvd.FromWorkload(mergeConfWorkload(), 2)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}},
}

// TestMergeConformanceShardedFit: WithShards(2/4/8) over every Source
// kind matches the monolithic serial fit ≤ 1e-10 — the acceptance gate.
func TestMergeConformanceShardedFit(t *testing.T) {
	for _, stream := range mergeConfStreams {
		t.Run(stream.name, func(t *testing.T) {
			mono, err := parsvd.New(parsvd.WithModes(stream.k))
			if err != nil {
				t.Fatal(err)
			}
			want, err := mono.Fit(context.Background(), stream.source(t))
			if err != nil {
				t.Fatal(err)
			}

			for _, shards := range []int{2, 4, 8} {
				sharded, err := parsvd.New(parsvd.WithModes(stream.k), parsvd.WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				res, err := sharded.Fit(context.Background(), stream.source(t))
				if err != nil {
					t.Fatalf("%d shards: %v", shards, err)
				}
				if res.Snapshots != want.Snapshots {
					t.Fatalf("%d shards ingested %d snapshots, monolithic %d",
						shards, res.Snapshots, want.Snapshots)
				}
				if d := maxSpectrumDiff(t, want.Singular, res.Singular); d > mergeConfTolerance {
					t.Errorf("%d shards: merged spectrum deviates from monolithic serial by %g, want <= %g",
						shards, d, mergeConfTolerance)
				}
				if want.Modes != nil && res.Modes != nil {
					if d := testutil.SubspaceError(want.Modes, res.Modes); d > 1e-8 {
						t.Errorf("%d shards: merged mode subspace deviates by %g", shards, d)
					}
				}
			}
		})
	}
}

// TestMergeConformanceShardedBackends: the shard engines themselves can
// run any backend; a Parallel-sharded fit matches the monolithic serial
// fit within the same gate.
func TestMergeConformanceShardedBackends(t *testing.T) {
	skipWithoutFleet(t)
	mono, err := parsvd.New(parsvd.WithModes(6))
	if err != nil {
		t.Fatal(err)
	}
	want, err := mono.Fit(context.Background(), parsvd.FromMatrix(mergeConfMatrix(), 2))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := parsvd.New(parsvd.WithModes(6), parsvd.WithShards(4),
		parsvd.WithBackend(parsvd.Parallel), parsvd.WithRanks(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	res, err := sharded.Fit(context.Background(), parsvd.FromMatrix(mergeConfMatrix(), 2))
	if err != nil {
		t.Fatal(err)
	}
	if d := maxSpectrumDiff(t, want.Singular, res.Singular); d > mergeConfTolerance {
		t.Errorf("parallel-sharded spectrum deviates from monolithic serial by %g, want <= %g",
			d, mergeConfTolerance)
	}
}

// shardCheckpointFiles fits each column shard of a separately (stamped
// WithShard) and saves the checkpoints to files, returning the paths.
func shardCheckpointFiles(t *testing.T, a *parsvd.Matrix, k, shards int) []string {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, shards)
	cols := a.Cols()
	for i := 0; i < shards; i++ {
		lo, hi := i*cols/shards, (i+1)*cols/shards
		svd, err := parsvd.New(parsvd.WithModes(k), parsvd.WithShard(i, shards))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svd.Fit(context.Background(), parsvd.FromMatrix(a.SliceCols(lo, hi), 2)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := svd.Save(&buf); err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(dir, "shard"+string(rune('0'+i))+".ckpt")
		if err := os.WriteFile(paths[i], buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// TestMergeConformanceTreeShape: the balanced reduction
// (MergeCheckpoints) and the left-deep chain (sequential SVD.Merge)
// agree with each other and with the monolithic fit within the
// accumulated bounds — and exactly-representable streams agree at the
// 1e-10 gate regardless of shape.
func TestMergeConformanceTreeShape(t *testing.T) {
	a := mergeConfMatrix()
	const k = 6
	mono, err := parsvd.New(parsvd.WithModes(k))
	if err != nil {
		t.Fatal(err)
	}
	want, err := mono.Fit(context.Background(), parsvd.FromMatrix(a, 2))
	if err != nil {
		t.Fatal(err)
	}

	paths := shardCheckpointFiles(t, a, k, 8)

	balanced, err := parsvd.MergeCheckpoints(paths...)
	if err != nil {
		t.Fatal(err)
	}
	bres, err := balanced.Result()
	if err != nil {
		t.Fatal(err)
	}

	// Left-deep: adopt the first shard, absorb the rest one by one.
	deep, err := parsvd.New(parsvd.WithModes(k))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := deep.Merge(bytes.NewReader(data)); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
	dres, err := deep.Result()
	if err != nil {
		t.Fatal(err)
	}

	tol := balanced.MergeBound() + deep.MergeBound() + mergeConfTolerance
	if d := maxSpectrumDiff(t, bres.Singular, dres.Singular); d > tol {
		t.Errorf("balanced vs left-deep spectra deviate by %g, beyond combined bound %g", d, tol)
	}
	for name, res := range map[string]*parsvd.Result{"balanced": bres, "left-deep": dres} {
		if d := maxSpectrumDiff(t, want.Singular, res.Singular); d > mergeConfTolerance {
			t.Errorf("%s 8-shard merge deviates from monolithic serial by %g, want <= %g",
				name, d, mergeConfTolerance)
		}
		if res.Snapshots != 24 {
			t.Errorf("%s merged snapshots = %d, want 24", name, res.Snapshots)
		}
	}
}

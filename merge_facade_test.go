package parsvd_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	parsvd "goparsvd"

	"goparsvd/internal/testutil"
)

// fitAndSave fits src columns [lo, hi) of a with the given options and
// returns the checkpoint bytes.
func fitAndSave(t *testing.T, a *parsvd.Matrix, lo, hi int, opts ...parsvd.Option) []byte {
	t.Helper()
	svd, err := parsvd.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svd.Fit(context.Background(), parsvd.FromMatrix(a.SliceCols(lo, hi), 4)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := svd.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMergeValidationTypedErrors: every incompatibility is refused with
// its typed error before the target changes.
func TestMergeValidationTypedErrors(t *testing.T) {
	a := mergeConfMatrix()
	target, err := parsvd.New(parsvd.WithModes(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := target.Fit(context.Background(), parsvd.FromMatrix(a.SliceCols(0, 12), 4)); err != nil {
		t.Fatal(err)
	}
	before, err := target.Result()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		ckpt []byte
		want error
	}{
		{"K mismatch", fitAndSave(t, a, 12, 24, parsvd.WithModes(5)), parsvd.ErrMergeIncompatible},
		{"forget factor mismatch", fitAndSave(t, a, 12, 24, parsvd.WithModes(6), parsvd.WithForgetFactor(0.9)), parsvd.ErrMergeIncompatible},
		{"row mismatch", func() []byte {
			b, _ := testutil.RandomLowRank(32, 12, 6, 0, testutil.NewRand(7))
			return fitAndSave(t, b, 0, 12, parsvd.WithModes(6))
		}(), parsvd.ErrMergeIncompatible},
		{"garbage", []byte("not a checkpoint at all........."), parsvd.ErrBadCheckpoint},
		{"truncated", fitAndSave(t, a, 12, 24, parsvd.WithModes(6))[:40], parsvd.ErrBadCheckpoint},
		{"more modes than K", overfullCheckpoint(t, a), parsvd.ErrBadCheckpoint},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := target.Merge(bytes.NewReader(tc.ckpt))
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			// The target is untouched: same spectrum, same counters, still
			// streaming.
			after, rerr := target.Result()
			if rerr != nil {
				t.Fatalf("target poisoned: %v", rerr)
			}
			if !testutil.CloseSlices(before.Singular, after.Singular, 0) {
				t.Fatal("failed merge changed the target spectrum")
			}
			if after.Snapshots != before.Snapshots {
				t.Fatalf("failed merge changed snapshots: %d -> %d", before.Snapshots, after.Snapshots)
			}
		})
	}

	// Every reader refuses a checkpoint holding more modes than its K.
	over := overfullCheckpoint(t, a)
	if _, err := parsvd.Load(bytes.NewReader(over)); !errors.Is(err, parsvd.ErrBadCheckpoint) {
		t.Fatalf("Load of 3 modes at K = 2: got %v, want ErrBadCheckpoint", err)
	}
	ok := fitAndSave(t, a, 12, 24, parsvd.WithModes(2))
	if _, err := parsvd.MergeReaders(bytes.NewReader(ok), bytes.NewReader(over)); !errors.Is(err, parsvd.ErrBadCheckpoint) {
		t.Fatalf("MergeReaders of 3 modes at K = 2: got %v, want ErrBadCheckpoint", err)
	}
}

// overfullCheckpoint is a checkpoint of 3 modes whose header declares
// K = 2: the int64 after the magic and the version byte.
func overfullCheckpoint(t *testing.T, a *parsvd.Matrix) []byte {
	t.Helper()
	b := fitAndSave(t, a, 12, 24, parsvd.WithModes(3))
	binary.LittleEndian.PutUint64(b[5:], 2)
	return b
}

// TestMergeShardProvenance: shard marks survive Save/Load, and the same
// shard is refused on a second merge while a sibling is accepted;
// mismatched partitionings are incompatible.
func TestMergeShardProvenance(t *testing.T) {
	a := mergeConfMatrix()
	shard0 := fitAndSave(t, a, 0, 8, parsvd.WithModes(6), parsvd.WithShard(0, 3))
	shard1 := fitAndSave(t, a, 8, 16, parsvd.WithModes(6), parsvd.WithShard(1, 3))
	other := fitAndSave(t, a, 16, 24, parsvd.WithModes(6), parsvd.WithShard(0, 2))

	// Provenance round-trips through Load: a resumed shard keeps its mark
	// in later saves.
	resumed, err := parsvd.Load(bytes.NewReader(shard0))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := resumed.Save(&again); err != nil {
		t.Fatal(err)
	}

	target, err := parsvd.New(parsvd.WithModes(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := target.Merge(bytes.NewReader(shard0)); err != nil {
		t.Fatal(err)
	}
	if err := target.Merge(bytes.NewReader(again.Bytes())); !errors.Is(err, parsvd.ErrShardOverlap) {
		t.Fatalf("re-merging shard 0 of 3: got %v, want ErrShardOverlap", err)
	}
	if err := target.Merge(bytes.NewReader(other)); !errors.Is(err, parsvd.ErrMergeIncompatible) {
		t.Fatalf("merging shard of a different partitioning: got %v, want ErrMergeIncompatible", err)
	}
	if err := target.Merge(bytes.NewReader(shard1)); err != nil {
		t.Fatalf("merging the disjoint sibling: %v", err)
	}
	if st := target.Stats(); st.Snapshots != 16 {
		t.Fatalf("snapshots after two merges = %d, want 16", st.Snapshots)
	}
}

// TestMergeAdoptIntoEmpty: merging into a fresh SVD adopts the
// checkpoint; the model then streams, projects and saves like any serial
// model.
func TestMergeAdoptIntoEmpty(t *testing.T) {
	a := mergeConfMatrix()
	ckpt := fitAndSave(t, a, 0, 16, parsvd.WithModes(6))

	svd, err := parsvd.New(parsvd.WithModes(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := svd.Merge(bytes.NewReader(ckpt)); err != nil {
		t.Fatal(err)
	}
	if st := svd.Stats(); st.Snapshots != 16 || st.Rows != 64 || st.Updates != 1 {
		t.Fatalf("adopted stats: %+v", st)
	}
	if err := svd.Push(a.SliceCols(16, 24)); err != nil {
		t.Fatalf("push after adopt: %v", err)
	}
	res, err := svd.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshots != 24 {
		t.Fatalf("snapshots = %d, want 24", res.Snapshots)
	}
	// The adopted+resumed stream matches the uninterrupted serial fit.
	mono, err := parsvd.New(parsvd.WithModes(6))
	if err != nil {
		t.Fatal(err)
	}
	want, err := mono.Fit(context.Background(), parsvd.FromMatrix(a, 8))
	if err != nil {
		t.Fatal(err)
	}
	if d := maxSpectrumDiff(t, want.Singular, res.Singular); d > 1e-10 {
		t.Fatalf("adopt+push deviates from serial fit by %g", d)
	}
	if _, err := svd.Coefficients(a.SliceCols(0, 4)); err != nil {
		t.Fatalf("projection after adopt: %v", err)
	}
}

// TestMergeSwitchesBackendToSerial: a Parallel model absorbs a
// checkpoint, continues serially, and its projections work.
func TestMergeSwitchesBackendToSerial(t *testing.T) {
	a := mergeConfMatrix()
	target, err := parsvd.New(parsvd.WithModes(6),
		parsvd.WithBackend(parsvd.Parallel), parsvd.WithRanks(2))
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	if _, err := target.Fit(context.Background(), parsvd.FromMatrix(a.SliceCols(0, 12), 4)); err != nil {
		t.Fatal(err)
	}
	if err := target.Merge(bytes.NewReader(fitAndSave(t, a, 12, 24, parsvd.WithModes(6)))); err != nil {
		t.Fatal(err)
	}
	if b := target.Backend(); b != parsvd.Serial {
		t.Fatalf("backend after merge = %v, want Serial", b)
	}
	if cfg := target.Configuration(); cfg.Backend != parsvd.Serial || cfg.Ranks != 1 {
		t.Fatalf("configuration after merge: %+v", cfg)
	}
	if err := target.Push(a.SliceCols(0, 4)); err != nil {
		t.Fatalf("push after merge: %v", err)
	}
	if _, err := target.Coefficients(a.SliceCols(0, 4)); err != nil {
		t.Fatalf("projection after merge: %v", err)
	}
	var ckpt bytes.Buffer
	if err := target.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	if _, err := parsvd.Load(&ckpt); err != nil {
		t.Fatalf("reloading post-merge checkpoint: %v", err)
	}
}

// TestWriteCheckpointRoundTrip: a published Result re-encoded by
// WriteCheckpoint loads and merges like an engine-written checkpoint.
func TestWriteCheckpointRoundTrip(t *testing.T) {
	a := mergeConfMatrix()
	svd, err := parsvd.New(parsvd.WithModes(6))
	if err != nil {
		t.Fatal(err)
	}
	res, err := svd.Fit(context.Background(), parsvd.FromMatrix(a.SliceCols(0, 16), 4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := parsvd.WriteCheckpoint(&buf, svd.Configuration(), res); err != nil {
		t.Fatal(err)
	}
	loaded, err := parsvd.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	lres, err := loaded.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.CloseSlices(res.Singular, lres.Singular, 0) {
		t.Fatal("WriteCheckpoint round trip changed the spectrum")
	}
	if err := parsvd.WriteCheckpoint(&bytes.Buffer{}, svd.Configuration(), &parsvd.Result{}); err == nil {
		t.Fatal("WriteCheckpoint accepted a Result without modes")
	}
}

// TestWithShardsOptionValidation: the sharding options reject nonsense
// and contradictory combinations.
func TestWithShardsOptionValidation(t *testing.T) {
	if _, err := parsvd.New(parsvd.WithShards(0)); err == nil {
		t.Fatal("WithShards(0) accepted")
	}
	if _, err := parsvd.New(parsvd.WithShard(3, 2)); err == nil {
		t.Fatal("WithShard(3, 2) accepted")
	}
	if _, err := parsvd.New(parsvd.WithShard(-1, 4)); err == nil {
		t.Fatal("WithShard(-1, 4) accepted")
	}
	if _, err := parsvd.New(parsvd.WithShards(2), parsvd.WithShard(0, 2)); err == nil {
		t.Fatal("WithShards combined with WithShard accepted")
	}
	svd, err := parsvd.New(parsvd.WithShards(1))
	if err != nil {
		t.Fatalf("WithShards(1): %v", err)
	}
	if cfg := svd.Configuration(); cfg.Shards != 1 {
		t.Fatalf("Shards = %d, want 1", cfg.Shards)
	}
}

// TestMergeBoundAccumulates: lossy merges (full-rank shards truncated to
// K) report a positive, growing bound that dominates the deviation from
// the exact spectrum. A LowRank twin holding the same state merges the
// same checkpoints bit for bit alike: merges always run the dense small
// SVD.
func TestMergeBoundAccumulates(t *testing.T) {
	rng := testutil.NewRand(9)
	a := testutil.RandomDense(40, 24, rng)
	const k = 4
	target, err := parsvd.New(parsvd.WithModes(k))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := target.Fit(context.Background(), parsvd.FromMatrix(a.SliceCols(0, 8), 8)); err != nil {
		t.Fatal(err)
	}
	if b := target.MergeBound(); b != 0 {
		t.Fatalf("unmerged model reports bound %g", b)
	}
	twin, err := parsvd.New(parsvd.WithModes(k), parsvd.WithLowRank())
	if err != nil {
		t.Fatal(err)
	}
	var state bytes.Buffer
	if err := target.Save(&state); err != nil {
		t.Fatal(err)
	}
	if err := twin.Merge(&state); err != nil {
		t.Fatal(err)
	}
	var prev float64
	for _, span := range [][2]int{{8, 16}, {16, 24}} {
		ckpt := fitAndSave(t, a, span[0], span[1], parsvd.WithModes(k))
		if err := target.Merge(bytes.NewReader(ckpt)); err != nil {
			t.Fatal(err)
		}
		b := target.MergeBound()
		if b <= prev {
			t.Fatalf("bound did not grow across lossy merges: %g -> %g", prev, b)
		}
		prev = b

		if err := twin.Merge(bytes.NewReader(ckpt)); err != nil {
			t.Fatal(err)
		}
		want, err := target.Result()
		if err != nil {
			t.Fatal(err)
		}
		got, err := twin.Result()
		if err != nil {
			t.Fatal(err)
		}
		if !testutil.CloseSlices(want.Singular, got.Singular, 0) || twin.MergeBound() != b {
			t.Fatalf("LowRank merge: spectrum %v bound %g, dense %v bound %g",
				got.Singular, twin.MergeBound(), want.Singular, b)
		}
	}

	// A WithShards fit reports its own reduction's bound: the one
	// MergeReaders computes over shard checkpoints dealt the same way
	// (batches of 4 round-robin across two shards).
	sharded, err := parsvd.New(parsvd.WithModes(3), parsvd.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sharded.Fit(context.Background(), parsvd.FromMatrix(a, 4))
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]io.Reader, 2)
	for i := range shards {
		next := 4 * i
		shard, err := parsvd.New(parsvd.WithModes(3))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := shard.Fit(context.Background(), parsvd.FromBatches(func() (*parsvd.Matrix, error) {
			if next >= a.Cols() {
				return nil, io.EOF
			}
			next += 8
			return a.SliceCols(next-8, next-4), nil
		})); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := shard.Save(&buf); err != nil {
			t.Fatal(err)
		}
		shards[i] = &buf
	}
	merged, err := parsvd.MergeReaders(shards...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := merged.Result()
	if err != nil {
		t.Fatal(err)
	}
	b := sharded.MergeBound()
	if b == 0 || b != merged.MergeBound() || !testutil.CloseSlices(want.Singular, res.Singular, 0) {
		t.Fatalf("WithShards(2): spectrum %v bound %g, MergeReaders over its shards: spectrum %v bound %g",
			res.Singular, b, want.Singular, merged.MergeBound())
	}
	// A merge into the WithShards fit adds to that bound, as it does on
	// the MergeReaders model holding the same state.
	extra := fitAndSave(t, a, 0, 8, parsvd.WithModes(3))
	for _, m := range []*parsvd.SVD{sharded, merged} {
		if err := m.Merge(bytes.NewReader(extra)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := sharded.MergeBound(), merged.MergeBound(); got <= b || got != want {
		t.Fatalf("one more merge: WithShards bound %g, MergeReaders model %g, want equal and > %g", got, want, b)
	}
}

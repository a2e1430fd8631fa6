package parsvd_test

import (
	"bytes"
	"context"
	"testing"

	parsvd "goparsvd"

	"goparsvd/internal/testutil"
)

// savePathModels builds one model per way a checkpoint is assembled: the
// serial engine's own state, a two-rank parallel gather, the WithShards
// merge tree, a shard-stamped fit, a model after Merge and one built by
// MergeReaders.
func savePathModels(t *testing.T) map[string]*parsvd.SVD {
	t.Helper()
	a := mergeConfMatrix()
	fit := func(src *parsvd.Matrix, opts ...parsvd.Option) *parsvd.SVD {
		t.Helper()
		svd, err := parsvd.New(append([]parsvd.Option{parsvd.WithModes(5), parsvd.WithForgetFactor(0.95)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { svd.Close() })
		if _, err := svd.Fit(context.Background(), parsvd.FromMatrix(src, 4)); err != nil {
			t.Fatal(err)
		}
		return svd
	}
	save := func(svd *parsvd.SVD) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := svd.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	left, right := a.SliceCols(0, 12), a.SliceCols(12, 24)

	merged := fit(left, parsvd.WithBackend(parsvd.Parallel), parsvd.WithRanks(2))
	if err := merged.Merge(bytes.NewReader(save(fit(right)))); err != nil {
		t.Fatal(err)
	}
	reduced, err := parsvd.MergeReaders(
		bytes.NewReader(save(fit(left, parsvd.WithShard(0, 2)))),
		bytes.NewReader(save(fit(right, parsvd.WithShard(1, 2)))))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*parsvd.SVD{
		"serial":       fit(a),
		"parallel":     fit(a, parsvd.WithBackend(parsvd.Parallel), parsvd.WithRanks(2)),
		"shards":       fit(a, parsvd.WithShards(2)),
		"shard-mark":   fit(a, parsvd.WithShard(1, 3)),
		"merge":        merged,
		"merge-reader": reduced,
	}
}

// TestSavePathsAgree pins the checkpoint bytes of every save path to one
// another: Save writes exactly what WriteCheckpoint writes for the same
// model's Configuration and Result, and a loaded checkpoint saves back to
// the bytes it was loaded from.
func TestSavePathsAgree(t *testing.T) {
	for name, svd := range savePathModels(t) {
		t.Run(name, func(t *testing.T) {
			var saved, written, resaved bytes.Buffer
			if err := svd.Save(&saved); err != nil {
				t.Fatal(err)
			}
			res, err := svd.Result()
			if err != nil {
				t.Fatal(err)
			}
			if err := parsvd.WriteCheckpoint(&written, svd.Configuration(), res); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saved.Bytes(), written.Bytes()) {
				t.Fatalf("Save wrote %d bytes, WriteCheckpoint %d: they differ", saved.Len(), written.Len())
			}
			loaded, err := parsvd.Load(bytes.NewReader(saved.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if err := loaded.Save(&resaved); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
				t.Fatal("Save(Load(Save(m))) differs from Save(m)")
			}
		})
	}
}

// TestFitCheckpointCostsNoGather: a Fit that writes a checkpoint builds
// its Result from the same gathered state, so it sends exactly the
// messages of the same Fit without one — on a parallel model, on a
// sharded fit of parallel engines (whose merge tree therefore runs once)
// and on a distributed fleet, whose SAVE is then the one collective after
// the last push — and the checkpoint is what Save writes afterwards.
func TestFitCheckpointCostsNoGather(t *testing.T) {
	a := testutil.RandomDense(40, 16, testutil.NewRand(3))
	for name, opts := range map[string][]parsvd.Option{
		"parallel":    {parsvd.WithBackend(parsvd.Parallel), parsvd.WithRanks(2)},
		"shards":      {parsvd.WithBackend(parsvd.Parallel), parsvd.WithRanks(2), parsvd.WithShards(2)},
		"distributed": {parsvd.WithBackend(parsvd.Distributed), parsvd.WithRanks(2)},
	} {
		t.Run(name, func(t *testing.T) {
			newSVD := func(extra ...parsvd.Option) *parsvd.SVD {
				t.Helper()
				svd, err := parsvd.New(append(append([]parsvd.Option{parsvd.WithModes(4)}, opts...), extra...)...)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { svd.Close() })
				return svd
			}
			fit := func(extra ...parsvd.Option) (*parsvd.SVD, *parsvd.Result) {
				t.Helper()
				svd := newSVD(extra...)
				res, err := svd.Fit(context.Background(), parsvd.FromMatrix(a, 4))
				if err != nil {
					t.Fatal(err)
				}
				return svd, res
			}
			plain, want := fit()
			var ckpt bytes.Buffer
			withCkpt, got := fit(parsvd.WithCheckpoint(&ckpt))
			if p, c := plain.Stats().Messages, withCkpt.Stats().Messages; p != c {
				t.Fatalf("Fit sent %d messages with a checkpoint writer, %d without", c, p)
			}
			if name == "distributed" {
				// The modes stay in the fleet: the Result carries their
				// fingerprint. After the last push the fleet runs one
				// collective, SAVE's gather: one message from rank 1.
				if want.ModesSHA256 == "" || want.ModesSHA256 != got.ModesSHA256 || !testutil.CloseSlices(want.Singular, got.Singular, 0) ||
					want.Iterations != got.Iterations || want.Snapshots != got.Snapshots {
					t.Fatal("a checkpoint writer changed Fit's Result")
				}
				pushed := newSVD()
				for off := 0; off < a.Cols(); off += 4 {
					if err := pushed.Push(a.SliceCols(off, off+4)); err != nil {
						t.Fatal(err)
					}
				}
				if n := withCkpt.Stats().Messages - pushed.Stats().Messages; n != 1 {
					t.Fatalf("Fit with a checkpoint writer sent %d messages after its last push, want 1 (the SAVE gather)", n)
				}
			} else if !testutil.CloseSlices(want.Singular, got.Singular, 0) || !testutil.CloseSlices(want.Modes.RawData(), got.Modes.RawData(), 0) {
				t.Fatal("a checkpoint writer changed Fit's Result")
			}
			var saved bytes.Buffer
			if err := withCkpt.Save(&saved); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ckpt.Bytes(), saved.Bytes()) {
				t.Fatal("Fit's checkpoint differs from Save")
			}
		})
	}
}

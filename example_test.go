package parsvd_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"

	parsvd "goparsvd"
)

// plantedSnapshots builds a 6×4 snapshot matrix whose exact singular
// values are 5, 3, 2, 1: column j is σ_j times the j-th unit vector.
func plantedSnapshots() *parsvd.Matrix {
	a := parsvd.NewMatrix(6, 4)
	for j, sigma := range []float64{5, 3, 2, 1} {
		a.Set(j, j, sigma)
	}
	return a
}

// The zero-option constructor is a serial streaming SVD; every knob is a
// functional option and invalid settings come back as errors, not panics.
func ExampleNew() {
	svd, err := parsvd.New(
		parsvd.WithModes(4),
		parsvd.WithForgetFactor(1.0),
	)
	if err != nil {
		panic(err)
	}
	fmt.Println("backend:", svd.Backend())

	_, err = parsvd.New(parsvd.WithForgetFactor(2.0))
	fmt.Println("error:", err)
	// Output:
	// backend: serial
	// error: parsvd: WithForgetFactor(2): forget factor must be in (0, 1]
}

// The serial backend (ParSVD_Serial) streams batches through Fit and
// recovers the planted spectrum exactly when ff = 1.
func ExampleSVD_Fit() {
	svd, err := parsvd.New(parsvd.WithModes(4))
	if err != nil {
		panic(err)
	}
	res, err := svd.Fit(context.Background(), parsvd.FromMatrix(plantedSnapshots(), 2))
	if err != nil {
		panic(err)
	}
	fmt.Printf("snapshots: %d, updates: %d\n", res.Snapshots, res.Iterations)
	for _, s := range res.Singular {
		fmt.Printf("%.1f ", s)
	}
	fmt.Println()
	// Output:
	// snapshots: 4, updates: 1
	// 5.0 3.0 2.0 1.0
}

// The parallel backend (ParSVD_Parallel) runs the same Source through the
// TSQR over the ranks' row blocks; the result carries the global modes.
func ExampleSVD_Fit_parallelBackend() {
	svd, err := parsvd.New(
		parsvd.WithModes(4),
		parsvd.WithBackend(parsvd.Parallel),
		parsvd.WithRanks(2),
	)
	if err != nil {
		panic(err)
	}
	defer svd.Close()
	res, err := svd.Fit(context.Background(), parsvd.FromMatrix(plantedSnapshots(), 2))
	if err != nil {
		panic(err)
	}
	r, c := res.Modes.Dims()
	fmt.Printf("global modes: %dx%d\n", r, c)
	for _, s := range res.Singular {
		fmt.Printf("%.1f ", s)
	}
	fmt.Println()
	// Output:
	// global modes: 6x4
	// 5.0 3.0 2.0 1.0
}

// The distributed backend runs one OS process per rank over loopback
// TCP as a persistent worker fleet: the first Push spawns it, every
// batch of real snapshot data is row-scattered to it over the wire, and
// it stays alive across pushes until Close. The result reports the
// spectrum plus a bit-exact SHA-256 fingerprint of the gathered modes
// (the matrix itself stays row-distributed in the workers); Save gathers
// the global state into a checkpoint that Load resumes serially.
func ExampleSVD_Push_distributedBackend() {
	const ranks = 2
	svd, err := parsvd.New(
		parsvd.WithBackend(parsvd.Distributed),
		parsvd.WithRanks(ranks),
		parsvd.WithModes(4),
	)
	if err != nil {
		panic(err)
	}
	defer svd.Close() // shuts the worker fleet down

	// Stream batches produced locally — a simulation loop, a file reader,
	// an HTTP handler — into the fleet, one Push per batch.
	a := plantedSnapshots()
	for col := 0; col < a.Cols(); col += 2 {
		if err := svd.Push(a.SliceCols(col, col+2)); err != nil {
			panic(err)
		}
	}

	res, err := svd.Result()
	if err != nil {
		panic(err)
	}
	fmt.Printf("snapshots: %d, updates: %d, fingerprinted: %v\n",
		res.Snapshots, res.Iterations, res.ModesSHA256 != "")
	for i, s := range res.Singular {
		if i > 0 {
			fmt.Print(" ")
		}
		fmt.Printf("%.1f", s)
	}
	fmt.Println()

	// Save gathers the fleet's row blocks at rank 0 into one global
	// checkpoint; Load resumes it (serially) anywhere.
	var ckpt bytes.Buffer
	if err := svd.Save(&ckpt); err != nil {
		panic(err)
	}
	restored, err := parsvd.Load(&ckpt)
	if err != nil {
		panic(err)
	}
	fmt.Println("restored rows:", restored.Stats().Rows)
	// Output:
	// snapshots: 4, updates: 1, fingerprinted: true
	// 5.0 3.0 2.0 1.0
	// restored rows: 6
}

// WithShards fits the stream as n independent shard-local
// decompositions — batches dealt round-robin — and reduces them through
// the pairwise merge tree when the stream ends. With forget factor 1
// and K at least the effective rank, the result matches the monolithic
// fit to rounding error.
func ExampleWithShards() {
	svd, err := parsvd.New(parsvd.WithModes(4), parsvd.WithShards(2))
	if err != nil {
		panic(err)
	}
	res, err := svd.Fit(context.Background(), parsvd.FromMatrix(plantedSnapshots(), 1))
	if err != nil {
		panic(err)
	}
	fmt.Printf("snapshots: %d, merge bound: %.1f\n", res.Snapshots, svd.MergeBound())
	for _, s := range res.Singular {
		fmt.Printf("%.1f ", s)
	}
	fmt.Println()
	// Output:
	// snapshots: 4, merge bound: 0.0
	// 5.0 3.0 2.0 1.0
}

// MergeCheckpoints reduces shard-local checkpoint files — each the Save
// of an independent fit over one piece of the snapshot set, stamped
// with its place in the partitioning via WithShard — into one serial
// model, combining them up a balanced pairwise merge tree.
func ExampleMergeCheckpoints() {
	dir, err := os.MkdirTemp("", "parsvd-merge-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	// Two shard-local fits over disjoint column halves.
	a := plantedSnapshots()
	paths := make([]string, 2)
	for i := range paths {
		shard, err := parsvd.New(parsvd.WithModes(4), parsvd.WithShard(i, 2))
		if err != nil {
			panic(err)
		}
		if _, err := shard.Fit(context.Background(), parsvd.FromMatrix(a.SliceCols(2*i, 2*i+2), 2)); err != nil {
			panic(err)
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard%d.ckpt", i))
		f, err := os.Create(paths[i])
		if err != nil {
			panic(err)
		}
		if err := shard.Save(f); err != nil {
			panic(err)
		}
		f.Close()
	}

	merged, err := parsvd.MergeCheckpoints(paths...)
	if err != nil {
		panic(err)
	}
	st := merged.Stats()
	fmt.Printf("snapshots: %d, rows: %d, bound: %.1f\n", st.Snapshots, st.Rows, merged.MergeBound())
	res, err := merged.Result()
	if err != nil {
		panic(err)
	}
	for _, s := range res.Singular {
		fmt.Printf("%.1f ", s)
	}
	fmt.Println()
	// Output:
	// snapshots: 4, rows: 6, bound: 0.0
	// 5.0 3.0 2.0 1.0
}

// Merge absorbs one shard's checkpoint into a live model: here the
// model fit the first half of the columns and merges a sibling's fit of
// the second half, recovering the full planted spectrum.
func ExampleSVD_Merge() {
	a := plantedSnapshots()

	sibling, err := parsvd.New(parsvd.WithModes(4), parsvd.WithShard(1, 2))
	if err != nil {
		panic(err)
	}
	if _, err := sibling.Fit(context.Background(), parsvd.FromMatrix(a.SliceCols(2, 4), 2)); err != nil {
		panic(err)
	}
	var ckpt bytes.Buffer
	if err := sibling.Save(&ckpt); err != nil {
		panic(err)
	}

	svd, err := parsvd.New(parsvd.WithModes(4), parsvd.WithShard(0, 2))
	if err != nil {
		panic(err)
	}
	if _, err := svd.Fit(context.Background(), parsvd.FromMatrix(a.SliceCols(0, 2), 2)); err != nil {
		panic(err)
	}
	if err := svd.Merge(&ckpt); err != nil {
		panic(err)
	}
	res, err := svd.Result()
	if err != nil {
		panic(err)
	}
	fmt.Printf("snapshots: %d\n", res.Snapshots)
	for _, s := range res.Singular {
		fmt.Printf("%.1f ", s)
	}
	fmt.Println()
	// Output:
	// snapshots: 4
	// 5.0 3.0 2.0 1.0
}

// Push is the incremental alternative to Fit, and Save/Load round-trip
// the full streaming state for checkpoint/restart.
func ExampleLoad() {
	svd, err := parsvd.New(parsvd.WithModes(4))
	if err != nil {
		panic(err)
	}
	a := plantedSnapshots()
	if err := svd.Push(a.SliceCols(0, 2)); err != nil {
		panic(err)
	}
	var checkpoint bytes.Buffer
	if err := svd.Save(&checkpoint); err != nil {
		panic(err)
	}

	restored, err := parsvd.Load(&checkpoint)
	if err != nil {
		panic(err)
	}
	if err := restored.Push(a.SliceCols(2, 4)); err != nil {
		panic(err)
	}
	res, err := restored.Result()
	if err != nil {
		panic(err)
	}
	for _, s := range res.Singular {
		fmt.Printf("%.1f ", s)
	}
	fmt.Println()
	// Output:
	// 5.0 3.0 2.0 1.0
}

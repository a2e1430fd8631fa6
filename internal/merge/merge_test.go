package merge_test

import (
	"math"
	"strings"
	"testing"

	"goparsvd/internal/linalg"
	"goparsvd/internal/mat"
	"goparsvd/internal/merge"
	"goparsvd/internal/testutil"
)

// svdPartial builds a merge operand from the exact thin SVD of a,
// truncated to k modes, with the discarded tail accounted in Bound.
func svdPartial(a *mat.Dense, k int) *merge.Partial {
	var ws mat.Workspace
	u, s, v := linalg.SVDWith(&ws, a)
	_ = v
	kk := k
	if kk > len(s) {
		kk = len(s)
	}
	var tail float64
	for _, sv := range s[kk:] {
		tail += sv * sv
	}
	return &merge.Partial{
		U:         u.SliceCols(0, kk),
		S:         append([]float64(nil), s[:kk]...),
		Snapshots: a.Cols(),
		Bound:     math.Sqrt(tail),
	}
}

// fullSpectrum is the exact spectrum of a, for references.
func fullSpectrum(a *mat.Dense) []float64 {
	var ws mat.Workspace
	_, s, _ := linalg.SVDWith(&ws, a)
	return append([]float64(nil), s...)
}

// columnShards splits a into n column shards, round-robin-free
// contiguous slices (the shape does not matter for the merge, only the
// disjoint union).
func columnShards(a *mat.Dense, n int) []*mat.Dense {
	cols := a.Cols()
	out := make([]*mat.Dense, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*cols/n, (i+1)*cols/n
		out = append(out, a.SliceCols(lo, hi))
	}
	return out
}

func maxAbsDiff(a, b []float64) float64 {
	var max float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}

// TestPairMatchesDirectSVD: merging the exact SVDs of two column shards
// of a rank-r matrix with K >= r reproduces the spectrum and the mode
// subspace of the direct SVD of the whole matrix.
func TestPairMatchesDirectSVD(t *testing.T) {
	const k = 6
	a, _ := testutil.RandomLowRank(48, 20, k, 0, testutil.NewRand(1))
	want := fullSpectrum(a)

	shards := columnShards(a, 2)
	pa, pb := svdPartial(shards[0], k), svdPartial(shards[1], k)
	var m merge.Merger
	var dst merge.Partial
	if err := m.Pair(&dst, pa, pb, k); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(want[:k], dst.S); d > 1e-10 {
		t.Fatalf("merged spectrum deviates from direct SVD by %g:\nmerged %v\ndirect %v",
			d, dst.S, want[:k])
	}
	full := svdPartial(a, k)
	if d := testutil.SubspaceError(full.U, dst.U); d > 1e-8 {
		t.Fatalf("merged mode subspace deviates from direct SVD by %g", d)
	}
	if dst.Snapshots != 20 || dst.Iterations != 1 {
		t.Fatalf("counters: snapshots=%d iterations=%d", dst.Snapshots, dst.Iterations)
	}
	if dst.Bound > 1e-9 {
		t.Fatalf("exact merge reports bound %g, want ~0", dst.Bound)
	}
	testutil.CheckOrthonormalColumns(t, "merged modes", dst.U, 1e-12)
}

// TestSingleShardIdentity: a one-element tree copies an operand of at
// most K modes bit for bit, and refuses one holding more than K.
func TestSingleShardIdentity(t *testing.T) {
	a, _ := testutil.RandomLowRank(32, 12, 8, 0, testutil.NewRand(2))
	p := svdPartial(a, 8)
	p.Iterations = 3
	got, err := merge.Tree([]*merge.Partial{p}, merge.TreeOptions{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(p.S, got.S); d != 0 || len(got.S) != 8 {
		t.Fatalf("identity changed the spectrum by %g (%d values)", d, len(got.S))
	}
	if !mat.EqualApprox(p.U, got.U, 0) {
		t.Fatal("identity changed the modes")
	}
	if got.Bound != p.Bound || got.Iterations != 3 || got.Snapshots != p.Snapshots {
		t.Fatalf("identity changed bound or counters: %+v", *got)
	}
	if &got.U.RawData()[0] == &p.U.RawData()[0] || &got.S[0] == &p.S[0] {
		t.Fatal("identity shares storage with its input")
	}
	if _, err := merge.Tree([]*merge.Partial{p}, merge.TreeOptions{K: 5}); err == nil ||
		!strings.Contains(err.Error(), "more than k") {
		t.Fatalf("8-mode operand in a K = 5 tree: %v", err)
	}
}

// TestRankDeficientShards: operands whose spectra end in exact zeros
// (rank-deficient shards) merge cleanly — no NaN, orthonormal modes.
func TestRankDeficientShards(t *testing.T) {
	a, _ := testutil.RandomLowRank(40, 10, 2, 0, testutil.NewRand(3))
	b, _ := testutil.RandomLowRank(40, 8, 3, 0, testutil.NewRand(4))
	pa, pb := svdPartial(a, 6), svdPartial(b, 6) // keeps zero tail values
	var m merge.Merger
	var dst merge.Partial
	if err := m.Pair(&dst, pa, pb, 6); err != nil {
		t.Fatal(err)
	}
	for i, sv := range dst.S {
		if math.IsNaN(sv) || sv < 0 {
			t.Fatalf("singular value %d is %g", i, sv)
		}
	}
	testutil.CheckOrthonormalColumns(t, "rank-deficient merge", dst.U, 1e-10)
	stacked := mat.HStack(a, b)
	if d := maxAbsDiff(fullSpectrum(stacked)[:5], dst.S[:5]); d > 1e-10 {
		t.Fatalf("rank-deficient merge spectrum off by %g", d)
	}
}

// TestShardsNarrowerThanK: shards holding fewer snapshots than K (so
// fewer than K modes) merge without padding tricks.
func TestShardsNarrowerThanK(t *testing.T) {
	const k = 8
	a, _ := testutil.RandomLowRank(30, 3, 3, 0, testutil.NewRand(5))
	b, _ := testutil.RandomLowRank(30, 4, 4, 0, testutil.NewRand(6))
	pa, pb := svdPartial(a, k), svdPartial(b, k) // 3 and 4 modes
	var m merge.Merger
	var dst merge.Partial
	if err := m.Pair(&dst, pa, pb, k); err != nil {
		t.Fatal(err)
	}
	if len(dst.S) != 7 {
		t.Fatalf("merged rank %d, want 7 (3+4 < K)", len(dst.S))
	}
	stacked := mat.HStack(a, b)
	if d := maxAbsDiff(fullSpectrum(stacked), dst.S); d > 1e-10 {
		t.Fatalf("narrow-shard merge spectrum off by %g", d)
	}
}

// TestTreeShapesAgree: the same 8 shards through a sequential and a
// parallel balanced tree give bit-equal results (identical pairings,
// identical arithmetic), matching the direct SVD.
func TestTreeShapesAgree(t *testing.T) {
	const k = 6
	a, _ := testutil.RandomLowRank(64, 24, k, 0, testutil.NewRand(7))
	parts := make([]*merge.Partial, 0, 8)
	for _, sh := range columnShards(a, 8) {
		parts = append(parts, svdPartial(sh, k))
	}
	bal, err := merge.Tree(parts, merge.TreeOptions{K: k, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := merge.Tree(parts, merge.TreeOptions{K: k, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(bal.S, par.S); d != 0 {
		t.Fatalf("parallel balanced tree deviates from sequential by %g (want bit-equal)", d)
	}
	if !mat.EqualApprox(bal.U, par.U, 0) {
		t.Fatal("parallel balanced tree modes differ from sequential")
	}
	want := fullSpectrum(a)[:k]
	if d := maxAbsDiff(want, bal.S); d > 1e-10 {
		t.Fatalf("8-shard balanced merge deviates from direct SVD by %g", d)
	}
	if bal.Iterations != 7 {
		t.Fatalf("8 shards must count 7 merges, got %d", bal.Iterations)
	}
	if bal.Snapshots != 24 {
		t.Fatalf("snapshots %d, want 24", bal.Snapshots)
	}
}

// TestTreeDoesNotMutateInputs: every shard count, odd ones carrying a
// caller's partial up a level, leaves the operands bit-identical.
func TestTreeDoesNotMutateInputs(t *testing.T) {
	for n := 2; n <= 9; n++ {
		for _, workers := range []int{1, 4} {
			parts := make([]*merge.Partial, n)
			saved := make([]*mat.Dense, n)
			for i := range parts {
				a, _ := testutil.RandomLowRank(40, 6, 4, 0, testutil.NewRand(int64(20+i)))
				parts[i] = svdPartial(a, 4)
				saved[i] = parts[i].U.Clone()
			}
			if _, err := merge.Tree(parts, merge.TreeOptions{K: 4, Workers: workers}); err != nil {
				t.Fatal(err)
			}
			for i, p := range parts {
				if p.U == nil || !mat.EqualApprox(saved[i], p.U, 0) {
					t.Fatalf("%d shards, %d workers: Tree changed operand %d", n, workers, i)
				}
			}
		}
	}
}

// TestBoundDominatesSpectrumError: merging full-rank shards with K below
// the true rank must report a positive bound that dominates the actual
// per-value spectrum perturbation (Weyl's inequality on the accumulated
// Frobenius tail).
func TestBoundDominatesSpectrumError(t *testing.T) {
	rng := testutil.NewRand(8)
	a := testutil.RandomDense(40, 24, rng) // effectively full rank 24
	const k = 6
	want := fullSpectrum(a)

	for _, shards := range []int{2, 4, 8} {
		parts := make([]*merge.Partial, 0, shards)
		for _, sh := range columnShards(a, shards) {
			parts = append(parts, svdPartial(sh, k))
		}
		got, err := merge.Tree(parts, merge.TreeOptions{K: k})
		if err != nil {
			t.Fatal(err)
		}
		if got.Bound <= 0 {
			t.Fatalf("%d shards: truncating merge reports bound %g, want > 0", shards, got.Bound)
		}
		if d := maxAbsDiff(want[:k], got.S); d > got.Bound+1e-12 {
			t.Fatalf("%d shards: spectrum error %g exceeds the claimed bound %g",
				shards, d, got.Bound)
		}
	}
}

// TestPairValidation: malformed operands are refused with errors, not
// panics, and dst aliasing is caught.
func TestPairValidation(t *testing.T) {
	a, _ := testutil.RandomLowRank(16, 6, 3, 0, testutil.NewRand(9))
	b, _ := testutil.RandomLowRank(20, 6, 3, 0, testutil.NewRand(10))
	pa, pb := svdPartial(a, 3), svdPartial(b, 3)
	var m merge.Merger
	var dst merge.Partial

	if err := m.Pair(&dst, pa, pb, 3); err == nil ||
		!strings.Contains(err.Error(), "rows") {
		t.Fatalf("row-mismatched merge: %v", err)
	}
	if err := m.Pair(&dst, pa, pa, 0); err == nil {
		t.Fatal("k = 0 accepted")
	}
	if err := m.Pair(pa, pa, pb, 3); err == nil {
		t.Fatal("dst aliasing an input accepted")
	}
	bad := &merge.Partial{U: pa.U, S: pa.S[:1]}
	if err := m.Pair(&dst, bad, bad, 3); err == nil {
		t.Fatal("modes/values length mismatch accepted")
	}
	if err := m.Pair(&dst, pa, pa, 2); err == nil || !strings.Contains(err.Error(), "more than k") {
		t.Fatalf("operand with more than k modes: %v", err)
	}
	if _, err := merge.Tree(nil, merge.TreeOptions{K: 3}); err == nil {
		t.Fatal("empty tree accepted")
	}
	if _, err := merge.Tree([]*merge.Partial{pa}, merge.TreeOptions{K: 0}); err == nil {
		t.Fatal("tree with k = 0 accepted")
	}
}

// TestPairDoesNotMutateInputs: operands survive a merge bit-identical,
// so one shard result can feed several trees.
func TestPairDoesNotMutateInputs(t *testing.T) {
	a, _ := testutil.RandomLowRank(24, 8, 4, 0, testutil.NewRand(11))
	b, _ := testutil.RandomLowRank(24, 8, 4, 0, testutil.NewRand(12))
	pa, pb := svdPartial(a, 4), svdPartial(b, 4)
	ua, sa := pa.U.Clone(), append([]float64(nil), pa.S...)
	var m merge.Merger
	var dst merge.Partial
	if err := m.Pair(&dst, pa, pb, 4); err != nil {
		t.Fatal(err)
	}
	if !mat.EqualApprox(ua, pa.U, 0) || maxAbsDiff(sa, pa.S) != 0 {
		t.Fatal("Pair mutated an input partial")
	}
}

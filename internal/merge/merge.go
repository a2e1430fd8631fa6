// Package merge implements the pairwise SVD merge operator of Iwen &
// Ong (arXiv 1601.07010): independent partial factorizations of
// disjoint snapshot subsets are recombined into the truncated SVD of
// their concatenation, and a tree of such merges assembles one model
// from arbitrarily many shard-local fits.
//
// Given two partials (U₁, Σ₁) and (U₂, Σ₂) over disjoint column
// (snapshot) subsets of a common M-row snapshot matrix, the
// concatenated data [A₁ | A₂] has the same left singular subspace as
// [U₁·diag(Σ₁) | U₂·diag(Σ₂)] — the right factors are column-orthonormal
// and drop out. The merge is therefore a QR of that M×(k₁+k₂) stack, a
// small SVD of the R factor, and a truncation:
//
//	[U₁·diag(Σ₁) | U₂·diag(Σ₂)] = Q·R,  R = Ũ·Σ̃·Ṽᵀ
//	U = Q·Ũ[:, :K],  Σ = Σ̃[:K]
//
// That is the streaming engine's update at forget factor 1, with the
// second partial's scaled modes in place of a batch: a Merger seeds one
// stream.SVD from the first partial and absorbs the second
// (stream.SVD.Absorb). Every operand holds at most K modes.
//
// The merge is exact when the effective rank of the union is at most K;
// otherwise each truncation discards a Frobenius tail whose norm is
// accumulated into the Bound field — an Iwen–Ong-style additive error
// bound that survives composition up a merge tree.
package merge

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"goparsvd/internal/mat"
	"goparsvd/internal/stream"
)

// Partial is one partial factorization in a merge set: the truncated
// left singular vectors and singular values of a shard of the snapshot
// stream, plus its counters and the accumulated truncation bound.
type Partial struct {
	// U is the M×k matrix of left singular vectors, k = len(S).
	U *mat.Dense
	// S holds the singular values in descending order.
	S []float64
	// Iterations and Snapshots aggregate the shard counters: a merge
	// sums both sides' Snapshots and counts itself as one extra
	// iteration.
	Iterations int
	Snapshots  int
	// Bound is the accumulated Frobenius-norm truncation error: the
	// root-sum-square of every singular value discarded by this
	// partial's merge history. By Weyl's inequality each merged singular
	// value is within Bound of the corresponding value of the exact
	// (unmerged, untruncated) factorization.
	Bound float64
}

// validate checks the structural invariants of one merge operand
// truncated to k modes.
func (p *Partial) validate(k int) error {
	if p == nil || p.U == nil {
		return errors.New("merge: nil partial")
	}
	if p.U.Rows() < 1 || p.U.Cols() < 1 {
		return fmt.Errorf("merge: empty %dx%d partial", p.U.Rows(), p.U.Cols())
	}
	if p.U.Cols() != len(p.S) {
		return fmt.Errorf("merge: partial has %d mode columns but %d singular values",
			p.U.Cols(), len(p.S))
	}
	if len(p.S) > k {
		return fmt.Errorf("merge: partial holds %d modes, more than k = %d", len(p.S), k)
	}
	return nil
}

// Merger owns the engine and the workspace of the merge hot path. The
// zero value is ready to use; a Merger must not be used from multiple
// goroutines concurrently.
type Merger struct {
	eng *stream.SVD
	k   int
	ws  mat.Workspace
}

// Pair merges a and b into dst, truncating to k modes; each operand must
// hold at most k.
//
// Ownership: dst must not alias a or b. dst's previous U (if any) is
// recycled into the merger's workspace and replaced by a fresh
// workspace-owned matrix — valid until dst is next passed to Pair as the
// destination or released with Release. dst.S is grown in place
// (append-style), so a dst reused across merges reaches a steady state
// where Pair allocates nothing.
func (m *Merger) Pair(dst, a, b *Partial, k int) error {
	if k < 1 {
		return fmt.Errorf("merge: k = %d < 1", k)
	}
	if dst == a || dst == b {
		return errors.New("merge: dst must not alias an input partial")
	}
	if err := a.validate(k); err != nil {
		return err
	}
	if err := b.validate(k); err != nil {
		return err
	}
	rows := a.U.Rows()
	if b.U.Rows() != rows {
		return fmt.Errorf("merge: partials have %d and %d rows; shards must share the snapshot row dimension",
			rows, b.U.Rows())
	}
	if m.eng == nil || m.k != k {
		m.eng, m.k = stream.New(stream.Options{K: k, FF: 1}), k
	}
	if err := m.eng.Seed(a.U, a.S, a.Iterations, a.Snapshots); err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	// The discarded tail accumulates additively with the operands' own
	// bounds (Iwen–Ong).
	tail, err := m.eng.Absorb(b.U, b.S)
	if err != nil {
		m.eng = nil // an engine that failed is not reused
		return fmt.Errorf("merge: %w", err)
	}
	s := m.eng.SingularValues()
	if dst.U != nil {
		m.ws.Put(dst.U)
	}
	dst.U = m.ws.GetUninit(rows, len(s))
	m.eng.ModeRows().TInto(dst.U)
	dst.S = append(dst.S[:0], s...)
	dst.Bound = a.Bound + b.Bound + math.Sqrt(tail)
	dst.Iterations = a.Iterations + b.Iterations + 1
	dst.Snapshots = a.Snapshots + b.Snapshots
	return nil
}

// Release returns a Pair-produced destination's mode storage to the
// merger's workspace. Safe on a zero Partial.
func (m *Merger) Release(p *Partial) {
	if p != nil && p.U != nil {
		m.ws.Put(p.U)
		p.U = nil
	}
}

// TreeOptions configures a merge-tree reduction.
type TreeOptions struct {
	// K is the truncation rank applied at every merge level.
	K int
	// Workers caps the goroutines merging one level concurrently; <= 1
	// runs sequentially, 0 means GOMAXPROCS.
	Workers int
}

// Tree reduces the partials up a balanced binary merge tree into one
// Partial, keeping the bound (and the critical path) logarithmic in the
// shard count. Each partial must hold at most K modes. The inputs are
// never mutated or adopted; the result is freshly allocated and
// caller-owned. A single input is returned as a copy (the single-shard
// identity).
func Tree(parts []*Partial, opt TreeOptions) (*Partial, error) {
	if opt.K < 1 {
		return nil, fmt.Errorf("merge: k = %d < 1", opt.K)
	}
	if len(parts) == 0 {
		return nil, errors.New("merge: no partials to merge")
	}
	for _, p := range parts {
		if err := p.validate(opt.K); err != nil {
			return nil, err
		}
	}
	if len(parts) == 1 {
		p := *parts[0]
		p.U = p.U.Clone()
		p.S = append([]float64(nil), p.S...)
		return &p, nil
	}
	return balanced(parts, opt)
}

// balanced merges level by level: adjacent pairs combine, an odd
// leftover carries up unchanged. With Workers > 1 the pairs of one
// level run concurrently, each goroutine on its own Merger. The root's
// storage comes from a merger that dies with this call, so it is handed
// to the caller as it is.
func balanced(parts []*Partial, opt TreeOptions) (*Partial, error) {
	workers := opt.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var m Merger // sequential path and recycling
	// One destination per merge, allocated at once; the last is the root.
	nodes := make([]Partial, len(parts)-1)
	cur := parts
	for len(cur) > 1 {
		pairs := len(cur) / 2
		next := make([]*Partial, pairs, pairs+1)
		for i := range next {
			next[i] = &nodes[i]
		}
		nodes = nodes[pairs:]
		var err error
		if workers > 1 && pairs > 1 {
			err = mergeLevelParallel(cur, next, opt.K, workers)
		} else {
			for i := 0; i < pairs; i++ {
				if err = m.Pair(next[i], cur[2*i], cur[2*i+1], opt.K); err != nil {
					break
				}
			}
		}
		if err != nil {
			return nil, err
		}
		if len(cur)%2 == 1 {
			next = append(next, cur[len(cur)-1])
		}
		// The consumed intermediates go back to the pool. The caller's
		// partials, an odd one among them carried up a level, are never
		// recycled.
		for _, p := range cur[:2*pairs] {
			if !slices.Contains(parts, p) {
				m.Release(p)
			}
		}
		cur = next
	}
	return cur[0], nil
}

// mergeLevelParallel fans one balanced level's pairs across workers,
// each with a private Merger. Intermediate destinations produced here
// are workspace-owned by some worker's merger, but workspaces are plain
// free lists: returning such a matrix to any merger later is safe.
func mergeLevelParallel(cur, dst []*Partial, k, workers int) error {
	if workers > len(dst) {
		workers = len(dst)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var m Merger
			for i := w; i < len(dst); i += workers {
				if err := m.Pair(dst[i], cur[2*i], cur[2*i+1], k); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

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
// The merge is exact when the effective rank of the union is at most K;
// otherwise each truncation discards a Frobenius tail whose norm is
// accumulated into the Bound field — an Iwen–Ong-style additive error
// bound that survives composition up a merge tree.
//
// The hot path mirrors internal/stream's streaming update: the stack is
// built column by column for an in-place compact-WY QR, Q is applied to
// Ũ[:, :K] rather than formed, and every temporary comes from a
// mat.Workspace, so steady-state merging of same-shaped partials performs
// no heap allocations.
package merge

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"goparsvd/internal/linalg"
	"goparsvd/internal/mat"
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

// validate checks the structural invariants of one merge operand.
func (p *Partial) validate() error {
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
	return nil
}

// Merger owns the workspace of the merge hot path. The zero value is
// ready to use; a Merger must not be used from multiple goroutines
// concurrently.
type Merger struct {
	ws mat.Workspace
}

// Pair merges a and b into dst, truncating to at most k modes.
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
	if err := a.validate(); err != nil {
		return err
	}
	if err := b.validate(); err != nil {
		return err
	}
	rows := a.U.Rows()
	if b.U.Rows() != rows {
		return fmt.Errorf("merge: partials have %d and %d rows; shards must share the snapshot row dimension",
			rows, b.U.Rows())
	}
	ka, kb := a.U.Cols(), b.U.Cols()

	// Stack [U₁·diag(Σ₁) | U₂·diag(Σ₂)] column by column, ready for the
	// in-place QR: the scaling folds into the transposing pass, exactly
	// like the streaming update's forget-factor pass.
	at := m.ws.GetUninit(ka+kb, rows)
	top := m.ws.ViewRows(at, 0, ka)
	mat.MulDiagScaledTInto(top, 1, a.U, a.S)
	m.ws.PutView(top)
	bot := m.ws.ViewRows(at, ka, ka+kb)
	mat.MulDiagScaledTInto(bot, 1, b.U, b.S)
	m.ws.PutView(bot)

	f, r := linalg.FactorQR(&m.ws, at)
	u, s := linalg.SVDLeftWith(&m.ws, r)
	m.ws.Put(r)

	kk := k
	if kk > len(s) {
		kk = len(s)
	}
	// The Frobenius norm of the discarded tail, accumulated additively
	// with the operands' own bounds (Iwen–Ong).
	var tail float64
	for _, sv := range s[kk:] {
		tail += sv * sv
	}
	usub := m.ws.GetUninit(u.Rows(), kk)
	u.SliceColsInto(usub, 0, kk)
	if dst.U != nil {
		m.ws.Put(dst.U)
	}
	dst.U = m.ws.GetUninit(rows, kk)
	f.MulQInto(&m.ws, dst.U, usub)
	f.Release(&m.ws)
	m.ws.Put(at)
	dst.S = append(dst.S[:0], s[:kk]...)
	m.ws.Put(usub)
	m.ws.Put(u)
	m.ws.PutFloats(s)

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
	// LeftDeep folds the partials sequentially (((p0⊕p1)⊕p2)⊕…) instead
	// of the default balanced pairwise levels. Results differ only
	// within the accumulated bound; the balanced tree keeps the bound
	// (and the critical path) logarithmic in the shard count.
	LeftDeep bool
	// Workers caps the goroutines merging one balanced level
	// concurrently; <= 1 runs sequentially, 0 means GOMAXPROCS. Ignored
	// for left-deep trees, whose merges form a chain.
	Workers int
}

// Tree reduces the partials up a binary merge tree into one Partial.
// The inputs are never mutated or adopted; the result is freshly
// allocated and caller-owned. A single input is returned as a K-truncated
// copy (the single-shard identity).
func Tree(parts []*Partial, opt TreeOptions) (*Partial, error) {
	if opt.K < 1 {
		return nil, fmt.Errorf("merge: k = %d < 1", opt.K)
	}
	if len(parts) == 0 {
		return nil, errors.New("merge: no partials to merge")
	}
	for _, p := range parts {
		if err := p.validate(); err != nil {
			return nil, err
		}
	}
	if len(parts) == 1 {
		return truncated(parts[0], opt.K), nil
	}
	if opt.LeftDeep {
		return leftDeep(parts, opt.K)
	}
	return balanced(parts, opt)
}

// truncated deep-copies p keeping at most k leading modes.
func truncated(p *Partial, k int) *Partial {
	kk := k
	if kk > p.U.Cols() {
		kk = p.U.Cols()
	}
	out := &Partial{
		U:          p.U.SliceCols(0, kk),
		S:          append([]float64(nil), p.S[:kk]...),
		Iterations: p.Iterations,
		Snapshots:  p.Snapshots,
		Bound:      p.Bound,
	}
	var tail float64
	for _, sv := range p.S[kk:] {
		tail += sv * sv
	}
	out.Bound += math.Sqrt(tail)
	return out
}

// leftDeep is the sequential fold. Two ping-pong destinations recycle
// through one merger, so the chain allocates O(1) beyond the result.
func leftDeep(parts []*Partial, k int) (*Partial, error) {
	var m Merger
	acc, tmp := &Partial{}, &Partial{}
	if err := m.Pair(acc, parts[0], parts[1], k); err != nil {
		return nil, err
	}
	for _, p := range parts[2:] {
		if err := m.Pair(tmp, acc, p, k); err != nil {
			return nil, err
		}
		acc, tmp = tmp, acc
	}
	return detach(&m, acc, tmp), nil
}

// balanced merges level by level: adjacent pairs combine, an odd
// leftover carries up unchanged. With Workers > 1 the pairs of one
// level run concurrently, each goroutine on its own Merger.
func balanced(parts []*Partial, opt TreeOptions) (*Partial, error) {
	workers := opt.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var m Merger // sequential path and final cleanup
	cur := parts
	leaves := true // level-0 partials are caller-owned, never recycled
	for len(cur) > 1 {
		pairs := len(cur) / 2
		next := make([]*Partial, 0, pairs+1)
		for i := 0; i < pairs; i++ {
			next = append(next, &Partial{})
		}
		var err error
		if workers > 1 && pairs > 1 {
			err = mergeLevelParallel(cur, next[:pairs], opt.K, workers)
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
		if !leaves {
			// The consumed intermediates of the previous level go back to
			// the pool (the odd carry, still in next, is skipped).
			for _, p := range cur[:2*pairs] {
				m.Release(p)
			}
		}
		cur = next
		leaves = false
	}
	root := cur[0]
	if leaves {
		return truncated(root, opt.K), nil
	}
	return detach(&m, root, nil), nil
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

// detach copies the workspace-owned root into a caller-owned Partial and
// recycles the scratch destinations.
func detach(m *Merger, root, spare *Partial) *Partial {
	out := &Partial{
		U:          root.U.Clone(),
		S:          append([]float64(nil), root.S...),
		Iterations: root.Iterations,
		Snapshots:  root.Snapshots,
		Bound:      root.Bound,
	}
	m.Release(root)
	if spare != nil {
		m.Release(spare)
	}
	return out
}

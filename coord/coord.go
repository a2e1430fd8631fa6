// Package coord drives a cross-node sharded fit: one Source partitioned
// into N shard streams, each fit as a shard-marked model on one of a set
// of parsvd serve nodes over the server HTTP API, the N shard-stamped
// checkpoints collected and reduced up parsvd's balanced pairwise merge
// tree into a single model.
//
// This is the distributed analogue of parsvd.WithShards, after
// Li–Kluger–Tygert (arXiv 1612.08709): every node computes its local
// factorization where its slice of the data streams, and only K-sized
// summaries — the shard checkpoints — ever cross the wire to the
// coordinator. Under the merge-exactness condition (forget factor 1 and
// K at least the stream's effective rank) the reduced model matches a
// monolithic fit to rounding, regardless of how the snapshots were
// dealt; the conformance suite holds it to ≤1e-10.
//
// Batches are dealt round-robin — batch j of the Source goes to shard
// j mod N — matching WithShards' single-node dealing, and shards map
// onto nodes in contiguous near-equal ranges (internal/grid.Partition)
// unless the Plan overrides the placement. A node that dies mid-fit is
// failed over: every shard it owned is recreated on a surviving node and
// refit from a fresh Replay of the source (the coordinator never buffers
// the stream), so the reduce still covers all N shards.
package coord

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	parsvd "goparsvd"
	"goparsvd/internal/grid"
	"goparsvd/server"
	"goparsvd/server/client"
)

// Assignment places one shard of the partition on one node.
type Assignment struct {
	// Shard is the provenance mark the shard's model is created with:
	// Index of Count.
	Shard parsvd.ShardInfo
	// Node indexes Config.Nodes.
	Node int
}

// Plan is the coordinator's validated partition plan: which node fits
// which shard. It is fixed at New; failover rewrites the live placement
// but never the plan's shard set, so the reduce always covers exactly
// the N disjoint shards validated up front.
type Plan struct {
	Nodes       []string
	Assignments []Assignment
}

// Config configures a Coordinator.
type Config struct {
	// Nodes are the serve-node base URLs (e.g. "http://10.0.0.1:8080").
	Nodes []string
	// Shards is N, the partition width. Every batch j of the Source is
	// dealt to shard j mod N.
	Shards int
	// Model is the base model name; shard i's model is named
	// "<Model>.s<i>of<N>" on its node.
	Model string
	// Spec is the model template (Modes, ForgetFactor, LowRank, ...);
	// Name and Shard are overwritten per shard. The zero value keeps
	// the server defaults.
	Spec server.ModelSpec
	// Assignments, when non-empty, overrides the default contiguous
	// shard→node placement. The set must be exactly one assignment per
	// shard of a single (Count = Shards)-way partition; a duplicate
	// shard is refused with parsvd.ErrShardOverlap and a mixed
	// partitioning with parsvd.ErrMergeIncompatible — at New, before
	// any network traffic.
	Assignments []Assignment
	// Replay returns a fresh Source yielding the same batch sequence as
	// the one given to Run. It is the refit path: when a node dies, the
	// batches already dealt to its shards are replayed onto a surviving
	// node from here. Nil means a node failure is fatal.
	Replay func() (parsvd.Source, error)
	// Retry is the per-call retry policy of every node client.
	// Backpressure (429) and shutdown (503) retries happen inside the
	// client; only what still fails after that reaches the
	// coordinator's failover logic.
	Retry client.RetryPolicy
	// HTTPClient overrides the transport; nil means http.DefaultClient.
	HTTPClient *http.Client
	// Keep leaves the shard-local models registered on their nodes
	// after Run; by default they are deleted once their checkpoints are
	// collected and merged.
	Keep bool
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Coordinator runs cross-node sharded fits. Construct with New; a
// Coordinator is single-use — Run consumes it.
type Coordinator struct {
	cfg     Config
	plan    Plan
	clients []*client.Client
	nodeOf  []int  // live shard→node placement, seeded from plan
	dealt   []int  // batches dealt to each shard so far
	alive   []bool // node liveness, flipped by failover
	rr      int    // round-robin cursor over survivors
}

// New validates the partition plan and returns a Coordinator bound to
// it. Plan errors — duplicate shards (parsvd.ErrShardOverlap), mixed
// partitionings (parsvd.ErrMergeIncompatible), out-of-range nodes — are
// reported here, before any network traffic.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("coord: no nodes")
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("coord: %d shards: want >= 1", cfg.Shards)
	}
	if cfg.Model == "" {
		return nil, errors.New("coord: no model name")
	}
	assignments := cfg.Assignments
	if len(assignments) == 0 {
		// Default placement: contiguous near-equal shard ranges per
		// node — node r owns shards [Start, End) of Partition(N, nodes).
		// With more nodes than shards, the extra nodes idle (and serve
		// as failover targets).
		p := len(cfg.Nodes)
		if p > cfg.Shards {
			p = cfg.Shards
		}
		for node, r := range grid.Partition(cfg.Shards, p) {
			for i := r.Start; i < r.End; i++ {
				assignments = append(assignments, Assignment{
					Shard: parsvd.ShardInfo{Index: i, Count: cfg.Shards},
					Node:  node,
				})
			}
		}
	}
	if err := validatePlan(cfg, assignments); err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:     cfg,
		plan:    Plan{Nodes: cfg.Nodes, Assignments: assignments},
		clients: make([]*client.Client, len(cfg.Nodes)),
		nodeOf:  make([]int, cfg.Shards),
		dealt:   make([]int, cfg.Shards),
		alive:   make([]bool, len(cfg.Nodes)),
	}
	for i, base := range cfg.Nodes {
		cl := client.New(base)
		cl.Retry = cfg.Retry
		cl.HTTPClient = cfg.HTTPClient
		c.clients[i] = cl
		c.alive[i] = true
	}
	for _, a := range assignments {
		c.nodeOf[a.Shard.Index] = a.Node
	}
	return c, nil
}

// validatePlan is the before-any-network-traffic gate: the assignment
// set must be exactly one shard each of a single Shards-way partition,
// every shard covered, every node index in range.
func validatePlan(cfg Config, assignments []Assignment) error {
	seen := make(map[int]bool, cfg.Shards)
	for _, a := range assignments {
		if a.Shard.Count != cfg.Shards {
			return fmt.Errorf("%w: plan mixes partitionings: shard %s in a %d-shard plan",
				parsvd.ErrMergeIncompatible, a.Shard, cfg.Shards)
		}
		if a.Shard.Index < 0 || a.Shard.Index >= a.Shard.Count {
			return fmt.Errorf("coord: shard %s: index out of range", a.Shard)
		}
		if seen[a.Shard.Index] {
			return fmt.Errorf("%w: plan assigns shard %s twice", parsvd.ErrShardOverlap, a.Shard)
		}
		seen[a.Shard.Index] = true
		if a.Node < 0 || a.Node >= len(cfg.Nodes) {
			return fmt.Errorf("coord: shard %s assigned to node %d of %d", a.Shard, a.Node, len(cfg.Nodes))
		}
	}
	if len(seen) != cfg.Shards {
		return fmt.Errorf("coord: plan covers %d of %d shards", len(seen), cfg.Shards)
	}
	return nil
}

// Plan reports the validated partition plan the Coordinator was built
// around (the initial placement — failover may move shards off it).
func (c *Coordinator) Plan() Plan { return c.plan }

// ShardModelName is the name of shard index-of-count's model on its
// node: "<model>.s<index>of<count>".
func ShardModelName(model string, index, count int) string {
	return fmt.Sprintf("%s.s%dof%d", model, index, count)
}

func (c *Coordinator) shardName(s int) string {
	return ShardModelName(c.cfg.Model, s, c.cfg.Shards)
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Run drives the whole coordinated fit: create the shard models on
// their nodes, deal the Source's batches round-robin to them, collect
// the N shard-stamped checkpoints, and reduce them up the balanced
// merge tree. The returned SVD is an ordinary local serial-backend
// model (stream more into it, Save it, or Install it on a node); unless
// Config.Keep is set, the shard-local models are deleted after
// collection. A Source that also implements io.Closer is closed when
// Run returns.
func (c *Coordinator) Run(ctx context.Context, src parsvd.Source) (*parsvd.SVD, error) {
	if src == nil {
		return nil, errors.New("coord: nil source")
	}
	defer closeSource(src)

	for _, a := range c.plan.Assignments {
		if err := c.ensureShard(ctx, a.Shard.Index); err != nil {
			return nil, err
		}
	}

	// Deal: batch j → shard j mod N, failing over mid-stream when a
	// push reveals a dead node.
	for j := 0; ; j++ {
		b, err := src.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("coord: reading source: %w", err)
		}
		s := j % c.cfg.Shards
		if err := c.pushShard(ctx, s, b); err != nil {
			return nil, err
		}
		c.dealt[s]++
	}

	// Collect: fetch every shard's checkpoint, failing over (and
	// refitting from Replay) when the fetch reveals a dead node.
	ckpts := make([][]byte, c.cfg.Shards)
	for s := range ckpts {
		ckpt, err := c.fetchShard(ctx, s)
		if err != nil {
			return nil, err
		}
		ckpts[s] = ckpt
	}

	if !c.cfg.Keep {
		c.cleanup(ctx)
	}

	// Reduce: N shard-stamped checkpoints up the balanced merge tree,
	// with full compatibility and overlap validation.
	readers := make([]io.Reader, len(ckpts))
	for i, ck := range ckpts {
		readers[i] = bytes.NewReader(ck)
	}
	merged, err := parsvd.MergeReaders(readers...)
	if err != nil {
		return nil, fmt.Errorf("coord: reducing shard checkpoints: %w", err)
	}
	c.logf("coord: reduced %d shards into %s (merge bound %.3e)",
		c.cfg.Shards, c.cfg.Model, merged.MergeBound())
	return merged, nil
}

// pushShard pushes one batch to a shard's current home, failing the
// node over (refit included) and retrying on a survivor as long as the
// failure looks like a dead node rather than a refused request.
func (c *Coordinator) pushShard(ctx context.Context, s int, b *parsvd.Matrix) error {
	for {
		node := c.nodeOf[s]
		_, err := c.clients[node].Push(ctx, c.shardName(s), b)
		if err == nil {
			return nil
		}
		if !isNodeFailure(err) {
			return fmt.Errorf("coord: pushing to shard %d on %s: %w", s, c.cfg.Nodes[node], err)
		}
		if ferr := c.failNode(ctx, node, err); ferr != nil {
			return ferr
		}
	}
}

// fetchShard collects one shard's checkpoint from its current home,
// with the same failover-and-retry loop as pushShard: a node that dies
// between the last push and collection gets its shards refit elsewhere
// from Replay, so the reduce still sees all N.
func (c *Coordinator) fetchShard(ctx context.Context, s int) ([]byte, error) {
	for {
		node := c.nodeOf[s]
		ckpt, err := c.clients[node].Checkpoint(ctx, c.shardName(s))
		if err == nil {
			return ckpt, nil
		}
		if !isNodeFailure(err) {
			return nil, fmt.Errorf("coord: collecting shard %d from %s: %w", s, c.cfg.Nodes[node], err)
		}
		if ferr := c.failNode(ctx, node, err); ferr != nil {
			return nil, ferr
		}
	}
}

// failNode marks a node dead and rehomes every shard it owned: each is
// recreated on a surviving node and refit from a fresh Replay of the
// source. Without a Replay factory the failure is fatal.
func (c *Coordinator) failNode(ctx context.Context, dead int, cause error) error {
	if !c.alive[dead] {
		// Already failed over; the caller will retry on the new home.
		return nil
	}
	c.alive[dead] = false
	c.logf("coord: node %s failed (%v); rehoming its shards", c.cfg.Nodes[dead], cause)
	for s := 0; s < c.cfg.Shards; s++ {
		if c.nodeOf[s] != dead {
			continue
		}
		if c.cfg.Replay == nil && c.dealt[s] > 0 {
			return fmt.Errorf("coord: node %s died holding shard %d and no Replay source is configured: %w",
				c.cfg.Nodes[dead], s, cause)
		}
		node, err := c.pickSurvivor()
		if err != nil {
			return fmt.Errorf("coord: %w (last failure on %s: %v)", err, c.cfg.Nodes[dead], cause)
		}
		c.nodeOf[s] = node
		if err := c.ensureShard(ctx, s); err != nil {
			return err
		}
		if err := c.refit(ctx, s); err != nil {
			return err
		}
		c.logf("coord: shard %d refit on %s (%d batches replayed)", s, c.cfg.Nodes[node], c.dealt[s])
	}
	return nil
}

// pickSurvivor round-robins over the nodes still alive.
func (c *Coordinator) pickSurvivor() (int, error) {
	for i := 0; i < len(c.alive); i++ {
		n := (c.rr + i) % len(c.alive)
		if c.alive[n] {
			c.rr = n + 1
			return n, nil
		}
	}
	return 0, errors.New("coord: no surviving nodes")
}

// ensureShard creates shard s's model on its current home, replacing a
// leftover model of the same name (a previous run, or a stale copy on a
// failover target) so the fit always starts from zero snapshots.
func (c *Coordinator) ensureShard(ctx context.Context, s int) error {
	node := c.nodeOf[s]
	spec := c.cfg.Spec
	spec.Name = c.shardName(s)
	spec.Shard = &server.ShardSpec{Index: s, Count: c.cfg.Shards}
	_, err := c.clients[node].CreateModel(ctx, spec)
	if isConflict(err) {
		if derr := c.clients[node].DeleteModel(ctx, spec.Name); derr != nil {
			return fmt.Errorf("coord: replacing leftover model %s on %s: %w", spec.Name, c.cfg.Nodes[node], derr)
		}
		_, err = c.clients[node].CreateModel(ctx, spec)
	}
	if err != nil {
		return fmt.Errorf("coord: creating %s on %s: %w", spec.Name, c.cfg.Nodes[node], err)
	}
	return nil
}

// refit replays shard s's share of the stream — the first dealt[s]
// batches with global index ≡ s (mod N) — from a fresh Replay source
// onto the shard's (new) home.
func (c *Coordinator) refit(ctx context.Context, s int) error {
	if c.dealt[s] == 0 {
		return nil
	}
	src, err := c.cfg.Replay()
	if err != nil {
		return fmt.Errorf("coord: opening replay source for shard %d: %w", s, err)
	}
	defer closeSource(src)
	node := c.nodeOf[s]
	replayed := 0
	for g := 0; replayed < c.dealt[s]; g++ {
		b, err := src.Next(ctx)
		if err == io.EOF {
			return fmt.Errorf("coord: replay source ended after %d batches, need %d more for shard %d",
				g, c.dealt[s]-replayed, s)
		}
		if err != nil {
			return fmt.Errorf("coord: replaying shard %d: %w", s, err)
		}
		if g%c.cfg.Shards != s {
			continue
		}
		if _, err := c.clients[node].Push(ctx, c.shardName(s), b); err != nil {
			// A second node dying mid-refit is not cascaded into here;
			// the outer failover loop owns that policy.
			return fmt.Errorf("coord: replaying shard %d onto %s: %w", s, c.cfg.Nodes[node], err)
		}
		replayed++
	}
	return nil
}

// cleanup best-effort deletes the shard-local models once their
// checkpoints are collected. Failures are logged, not fatal: the merged
// result is already in hand.
func (c *Coordinator) cleanup(ctx context.Context) {
	for s := 0; s < c.cfg.Shards; s++ {
		node := c.nodeOf[s]
		if !c.alive[node] {
			continue
		}
		if err := c.clients[node].DeleteModel(ctx, c.shardName(s)); err != nil {
			c.logf("coord: deleting %s on %s: %v", c.shardName(s), c.cfg.Nodes[node], err)
		}
	}
}

// Install publishes a merged model onto a serve node: the model is
// created there (adopting cfg's Modes/ForgetFactor when the spec is
// zero) and the merged state uploaded through POST /merge — the
// degenerate single-operand merge, i.e. an adopt. An existing model of
// that name absorbs the upload instead, under the server's full merge
// validation.
func Install(ctx context.Context, merged *parsvd.SVD, nodeURL, name string, retry client.RetryPolicy) error {
	if merged == nil {
		return errors.New("coord: nil merged model")
	}
	var buf bytes.Buffer
	if err := merged.Save(&buf); err != nil {
		return fmt.Errorf("coord: serializing merged model: %w", err)
	}
	cl := client.New(nodeURL)
	cl.Retry = retry
	cfg := merged.Configuration()
	_, err := cl.CreateModel(ctx, server.ModelSpec{
		Name:         name,
		Modes:        cfg.Modes,
		ForgetFactor: cfg.ForgetFactor,
	})
	if err != nil && !isConflict(err) {
		return fmt.Errorf("coord: creating %s on %s: %w", name, nodeURL, err)
	}
	if _, err := cl.Merge(ctx, name, bytes.NewReader(buf.Bytes())); err != nil {
		return fmt.Errorf("coord: installing %s on %s: %w", name, nodeURL, err)
	}
	return nil
}

// isNodeFailure distinguishes a dead or dying node (worth failing over)
// from a refused request (a caller error worth surfacing): network
// errors and 5xx responses fail over, 4xx propagate. Context
// cancellation is the caller's own signal, never a node failure.
func isNodeFailure(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode >= 500
	}
	// No HTTP response at all: connection refused, reset, timeout.
	return true
}

// isConflict reports an HTTP 409 — model already exists (create) or has
// no data yet (collection paths never see this).
func isConflict(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusConflict
}

func closeSource(src parsvd.Source) {
	if cl, ok := src.(io.Closer); ok {
		cl.Close()
	}
}

// String renders a plan compactly for logs: "shard→node" pairs.
func (p Plan) String() string {
	var b strings.Builder
	for i, a := range p.Assignments {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%d→%d", a.Shard.Index, a.Node)
	}
	return b.String()
}

package coord_test

// Coordinator conformance and fault paths: a 3-node × 6-shard
// coordinated fit over real HTTP must match the monolithic serial fit
// ≤ 1e-10 on every Source kind (the same exactness fixtures as the
// merge conformance gate: forget factor 1.0, K ≥ effective rank), invalid
// partition plans must be refused before any network traffic, and a
// node that dies mid-fit must be failed over — its shards refit on a
// survivor from the Replay source — without loosening the gate.

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	parsvd "goparsvd"
	"goparsvd/coord"
	"goparsvd/internal/testutil"
	"goparsvd/server"
	"goparsvd/server/client"
)

const coordTolerance = 1e-10

// node is one in-process serve node on a real HTTP listener.
type node struct {
	srv *server.Server
	ts  *httptest.Server
}

func (n *node) kill() {
	// Abrupt: drop live connections and close the listener, so every
	// later request is a connection refusal — the same failure shape as
	// a SIGKILLed process.
	n.ts.CloseClientConnections()
	n.ts.Close()
	n.srv.Close()
}

// bootNodes starts n serve nodes and returns their base URLs.
func bootNodes(t *testing.T, n int) ([]string, []*node) {
	t.Helper()
	urls := make([]string, n)
	nodes := make([]*node, n)
	for i := range nodes {
		srv, err := server.New(server.Config{Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		nodes[i] = &node{srv: srv, ts: ts}
		urls[i] = ts.URL
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
	}
	return urls, nodes
}

// coordMatrix is exactly rank 6 with no noise floor, so a K = 6
// truncated stream loses nothing and the reduce is exact.
func coordMatrix() *parsvd.Matrix {
	a, _ := testutil.RandomLowRank(64, 24, 6, 0, testutil.NewRand(42))
	return a
}

// coordWorkload is the Burgers workload in its no-truncation (K =
// Snapshots) configuration, mirroring the merge conformance fixtures.
func coordWorkload() parsvd.Workload {
	w := parsvd.DefaultWorkload()
	w.RowsPerRank = 64
	w.Snapshots = 24
	w.InitBatch = 2
	w.Batch = 2
	w.K = 24
	w.FF = 1.0
	return w
}

func batchesFromMatrix(a *parsvd.Matrix, width int) func() (parsvd.Source, error) {
	return func() (parsvd.Source, error) {
		pos := 0
		return parsvd.FromBatches(func() (*parsvd.Matrix, error) {
			if pos >= a.Cols() {
				return nil, io.EOF
			}
			end := pos + width
			if end > a.Cols() {
				end = a.Cols()
			}
			b := a.SliceCols(pos, end)
			pos = end
			return b, nil
		}), nil
	}
}

// coordStreams are the three Source kinds, each as a replayable factory.
var coordStreams = []struct {
	name   string
	k      int
	replay func(t *testing.T) func() (parsvd.Source, error)
}{
	{"FromMatrix", 6, func(t *testing.T) func() (parsvd.Source, error) {
		a := coordMatrix()
		return func() (parsvd.Source, error) { return parsvd.FromMatrix(a, 2), nil }
	}},
	{"FromBatches", 6, func(t *testing.T) func() (parsvd.Source, error) {
		return batchesFromMatrix(coordMatrix(), 2)
	}},
	{"FromWorkload", 24, func(t *testing.T) func() (parsvd.Source, error) {
		w := coordWorkload()
		return func() (parsvd.Source, error) { return parsvd.FromWorkload(w, 2) }
	}},
}

// monolithic is the ground truth: one local serial fit over the stream.
func monolithic(t *testing.T, k int, mk func() (parsvd.Source, error)) []float64 {
	t.Helper()
	svd, err := parsvd.New(parsvd.WithModes(k))
	if err != nil {
		t.Fatal(err)
	}
	defer svd.Close()
	src, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	res, err := svd.Fit(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	return res.Singular
}

func maxDiff(t *testing.T, got, want []float64) float64 {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("spectrum length %d, want %d", len(got), len(want))
	}
	var d float64
	for i := range want {
		if v := math.Abs(got[i] - want[i]); v > d {
			d = v
		}
	}
	return d
}

// TestCoordinatedFitMatchesMonolithic is the acceptance gate: 3 nodes ×
// 6 shards over real HTTP, all three Source kinds, ≤ 1e-10 of the
// monolithic serial fit.
func TestCoordinatedFitMatchesMonolithic(t *testing.T) {
	for _, stream := range coordStreams {
		t.Run(stream.name, func(t *testing.T) {
			urls, _ := bootNodes(t, 3)
			replay := stream.replay(t)
			c, err := coord.New(coord.Config{
				Nodes:  urls,
				Shards: 6,
				Model:  "conf",
				Spec:   server.ModelSpec{Modes: stream.k},
				Replay: replay,
				Logf:   t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			src, err := replay()
			if err != nil {
				t.Fatal(err)
			}
			merged, err := c.Run(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			defer merged.Close()
			res, err := merged.Result()
			if err != nil {
				t.Fatal(err)
			}
			want := monolithic(t, stream.k, replay)
			if d := maxDiff(t, res.Singular, want); d > coordTolerance {
				t.Errorf("coordinated spectrum deviates from monolithic by %g, want <= %g", d, coordTolerance)
			}
			// The shard-local models were cleaned up after collection.
			for i, u := range urls {
				infos, err := client.New(u).Models(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if len(infos) != 0 {
					t.Errorf("node %d still holds %d models after cleanup", i, len(infos))
				}
			}
		})
	}
}

// TestCoordinatorNodeDeathRefit kills one node mid-stream: its shards
// must be refit on survivors from the Replay source and the final
// spectrum must still meet the gate. The fault fires from inside the
// Source, between two batches the dead node had already acked.
func TestCoordinatorNodeDeathRefit(t *testing.T) {
	for _, stream := range coordStreams {
		t.Run(stream.name, func(t *testing.T) {
			urls, nodes := bootNodes(t, 3)
			replay := stream.replay(t)

			// Wrap the live stream: after batch 5, node 0 dies abruptly.
			inner, err := replay()
			if err != nil {
				t.Fatal(err)
			}
			served, killed := 0, false
			src := parsvd.FromBatches(func() (*parsvd.Matrix, error) {
				if served == 5 && !killed {
					killed = true
					nodes[0].kill()
				}
				b, err := inner.Next(context.Background())
				if err != nil {
					return nil, err
				}
				served++
				return b, nil
			})

			c, err := coord.New(coord.Config{
				Nodes:  urls,
				Shards: 6,
				Model:  "fault",
				Spec:   server.ModelSpec{Modes: stream.k},
				Replay: replay,
				Logf:   t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			merged, err := c.Run(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			defer merged.Close()
			if !killed {
				t.Fatal("fault never fired: stream shorter than expected")
			}
			res, err := merged.Result()
			if err != nil {
				t.Fatal(err)
			}
			want := monolithic(t, stream.k, replay)
			if d := maxDiff(t, res.Singular, want); d > coordTolerance {
				t.Errorf("post-failover spectrum deviates from monolithic by %g, want <= %g", d, coordTolerance)
			}
		})
	}
}

// TestCoordinatorDeathAtCollection kills a node after the stream is
// fully dealt, so the failure surfaces at checkpoint collection: the
// dead node's shards are refit in full from Replay and collected from
// the survivor.
func TestCoordinatorDeathAtCollection(t *testing.T) {
	urls, nodes := bootNodes(t, 3)
	a := coordMatrix()
	replay := batchesFromMatrix(a, 2)

	// The last batch kills node 2 AFTER it is pushed — node 2's shards
	// are complete but uncollectable.
	inner, _ := replay()
	count := 0
	src := parsvd.FromBatches(func() (*parsvd.Matrix, error) {
		b, err := inner.Next(context.Background())
		if err != nil {
			if err == io.EOF {
				nodes[2].kill()
			}
			return nil, err
		}
		count++
		return b, nil
	})

	c, err := coord.New(coord.Config{
		Nodes:  urls,
		Shards: 6,
		Model:  "collect",
		Spec:   server.ModelSpec{Modes: 6},
		Replay: replay,
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := c.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	res, err := merged.Result()
	if err != nil {
		t.Fatal(err)
	}
	want := monolithic(t, 6, replay)
	if d := maxDiff(t, res.Singular, want); d > coordTolerance {
		t.Errorf("post-collection-failover spectrum deviates by %g, want <= %g", d, coordTolerance)
	}
}

// TestPlanRefusedUpFront: duplicate-shard and mixed-partitioning plans
// are refused at New with the facade's merge sentinels — before any
// network traffic (the node URLs here are unroutable on purpose).
func TestPlanRefusedUpFront(t *testing.T) {
	deadNodes := []string{"http://192.0.2.1:1", "http://192.0.2.2:1"}

	_, err := coord.New(coord.Config{
		Nodes: deadNodes, Shards: 2, Model: "m",
		Assignments: []coord.Assignment{
			{Shard: parsvd.ShardInfo{Index: 0, Count: 2}, Node: 0},
			{Shard: parsvd.ShardInfo{Index: 0, Count: 2}, Node: 1},
		},
	})
	if !errors.Is(err, parsvd.ErrShardOverlap) {
		t.Errorf("duplicate-shard plan: err = %v, want ErrShardOverlap", err)
	}

	_, err = coord.New(coord.Config{
		Nodes: deadNodes, Shards: 2, Model: "m",
		Assignments: []coord.Assignment{
			{Shard: parsvd.ShardInfo{Index: 0, Count: 2}, Node: 0},
			{Shard: parsvd.ShardInfo{Index: 1, Count: 3}, Node: 1},
		},
	})
	if !errors.Is(err, parsvd.ErrMergeIncompatible) {
		t.Errorf("mixed-partitioning plan: err = %v, want ErrMergeIncompatible", err)
	}

	_, err = coord.New(coord.Config{
		Nodes: deadNodes, Shards: 3, Model: "m",
		Assignments: []coord.Assignment{
			{Shard: parsvd.ShardInfo{Index: 0, Count: 3}, Node: 0},
			{Shard: parsvd.ShardInfo{Index: 1, Count: 3}, Node: 1},
		},
	})
	if err == nil || !strings.Contains(err.Error(), "covers 2 of 3") {
		t.Errorf("incomplete plan: err = %v, want coverage refusal", err)
	}

	_, err = coord.New(coord.Config{
		Nodes: deadNodes, Shards: 1, Model: "m",
		Assignments: []coord.Assignment{
			{Shard: parsvd.ShardInfo{Index: 0, Count: 1}, Node: 7},
		},
	})
	if err == nil || !strings.Contains(err.Error(), "node 7") {
		t.Errorf("out-of-range node: err = %v, want placement refusal", err)
	}
}

// TestDefaultPlanIsContiguous: the default placement is
// grid.Partition's contiguous near-equal ranges — 6 shards on 3 nodes
// means shards {0,1}→0, {2,3}→1, {4,5}→2.
func TestDefaultPlanIsContiguous(t *testing.T) {
	c, err := coord.New(coord.Config{
		Nodes:  []string{"http://a", "http://b", "http://c"},
		Shards: 6,
		Model:  "m",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 1, 1, 2, 2}
	p := c.Plan()
	if len(p.Assignments) != 6 {
		t.Fatalf("plan has %d assignments, want 6", len(p.Assignments))
	}
	for _, a := range p.Assignments {
		if a.Node != want[a.Shard.Index] {
			t.Errorf("shard %d on node %d, want %d", a.Shard.Index, a.Node, want[a.Shard.Index])
		}
	}
	// More nodes than shards: the extras idle, every shard still placed.
	c2, err := coord.New(coord.Config{
		Nodes:  []string{"http://a", "http://b", "http://c"},
		Shards: 2,
		Model:  "m",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c2.Plan().Assignments); got != 2 {
		t.Fatalf("2-shard plan has %d assignments", got)
	}
}

// TestInstall: the merged model lands on a target node via POST /merge
// and serves the same spectrum the coordinator computed.
func TestInstall(t *testing.T) {
	urls, _ := bootNodes(t, 3)
	a := coordMatrix()
	replay := batchesFromMatrix(a, 2)
	c, err := coord.New(coord.Config{
		Nodes:  urls,
		Shards: 6,
		Model:  "inst",
		Spec:   server.ModelSpec{Modes: 6},
		Replay: replay,
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	src, _ := replay()
	merged, err := c.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()

	ctx := context.Background()
	if err := coord.Install(ctx, merged, urls[0], "inst", client.RetryPolicy{}); err != nil {
		t.Fatal(err)
	}
	sp, err := client.New(urls[0]).Spectrum(ctx, "inst")
	if err != nil {
		t.Fatal(err)
	}
	res, err := merged.Result()
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(t, sp.Singular, res.Singular); d != 0 {
		t.Errorf("installed spectrum deviates from merged by %g, want 0", d)
	}
	// The installed model keeps streaming.
	if _, err := client.New(urls[0]).Push(ctx, "inst", a.SliceCols(0, 2)); err != nil {
		t.Fatal(err)
	}
}

// TestKeepLeavesShardModels: with Keep set, the shard-local models stay
// registered and report their provenance in listings and health.
func TestKeepLeavesShardModels(t *testing.T) {
	urls, _ := bootNodes(t, 2)
	a := coordMatrix()
	replay := batchesFromMatrix(a, 2)
	c, err := coord.New(coord.Config{
		Nodes:  urls,
		Shards: 4,
		Model:  "keep",
		Spec:   server.ModelSpec{Modes: 6},
		Replay: replay,
		Keep:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	src, _ := replay()
	merged, err := c.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	merged.Close()

	ctx := context.Background()
	total := 0
	for _, u := range urls {
		infos, err := client.New(u).Models(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range infos {
			total++
			if info.Spec.Shard == nil {
				t.Errorf("model %s has no shard spec", info.Spec.Name)
				continue
			}
			want := coord.ShardModelName("keep", info.Spec.Shard.Index, 4)
			if info.Spec.Name != want {
				t.Errorf("model %s, want %s", info.Spec.Name, want)
			}
			if info.Stats.Shard == "" {
				t.Errorf("model %s stats carry no shard provenance", info.Spec.Name)
			}
		}
	}
	if total != 4 {
		t.Errorf("%d shard models survive with Keep, want 4", total)
	}
}

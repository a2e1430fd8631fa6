// Command parsvd-coord runs a cross-node sharded fit: it partitions a
// snapshot stream into N shards dealt round-robin across a set of
// parsvd-serve nodes, fits each shard as a provenance-marked model where
// it lands, collects the N shard-stamped checkpoints and reduces them up
// the balanced pairwise merge tree into one model — written to a local
// checkpoint file, installed on a target node, or both.
//
// The stream comes from the deterministic benchmark workload
// (-workload, optionally tuned with -snapshots/-rows/-batch/-modes) or
// from a GNC container file (-gnc data.gnc -var field). Both are
// replayable, which is what arms the failover path: when a serve node
// dies mid-fit, its shards are recreated on a surviving node and refit
// from a fresh replay of the same stream, so the reduce still covers all
// N shards.
//
//	parsvd-coord -nodes http://a:8080,http://b:8080,http://c:8080 \
//	    -shards 6 -model turbulence -workload -o merged.ckpt
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	parsvd "goparsvd"
	"goparsvd/coord"
	"goparsvd/server"
	"goparsvd/server/client"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("parsvd-coord: ")

	var (
		nodes  = flag.String("nodes", "", "comma-separated serve-node base URLs (required)")
		shards = flag.Int("shards", 0, "partition width N (default: one shard per node)")
		model  = flag.String("model", "coord", "base model name; shard i fits as <model>.s<i>of<N>")
		modes  = flag.Int("modes", 0, "truncation rank K (0 keeps the server default; -workload uses the workload's K)")
		ff     = flag.Float64("ff", 0, "forget factor in (0,1] (0 keeps the server default)")

		workload  = flag.Bool("workload", false, "stream the deterministic benchmark workload")
		snapshots = flag.Int("snapshots", 0, "override the workload snapshot count")
		rows      = flag.Int("rows", 0, "override the workload rows (grid points)")
		batch     = flag.Int("batch", 0, "batch width (-gnc default 8; 0 keeps the workload's)")
		initBatch = flag.Int("init-batch", 0, "override the workload's initialization batch width")
		gnc       = flag.String("gnc", "", "stream a variable from this GNC container file")
		variable  = flag.String("var", "", "variable name inside the -gnc file")

		out         = flag.String("o", "", "write the merged checkpoint here")
		target      = flag.String("target", "", "install the merged model on this node URL")
		targetModel = flag.String("target-model", "", "model name on -target (default: the base model name)")
		keep        = flag.Bool("keep", false, "keep the shard-local models on their nodes after the run")
		retries     = flag.Int("retries", 4, "client attempts per call (429/503 backoff)")
		timeout     = flag.Duration("timeout", 10*time.Minute, "overall run deadline")
		quiet       = flag.Bool("q", false, "suppress the spectrum listing")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: parsvd-coord -nodes url,url,... [-shards N] [-model name] (-workload | -gnc file -var v) [-o merged.ckpt] [-target url]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	nodeList := splitNodes(*nodes)
	if len(nodeList) == 0 {
		log.Print("at least one -nodes URL is required")
		flag.Usage()
		os.Exit(2)
	}
	if *shards == 0 {
		*shards = len(nodeList)
	}

	// Build the (replayable) stream and the model template.
	var replay func() (parsvd.Source, error)
	spec := server.ModelSpec{Modes: *modes, ForgetFactor: *ff}
	switch {
	case *workload && *gnc != "":
		log.Fatal("-workload and -gnc are mutually exclusive")
	case *workload:
		w := parsvd.DefaultWorkload()
		if *snapshots != 0 {
			w.Snapshots = *snapshots
		}
		if *rows != 0 {
			w.RowsPerRank = *rows
		}
		if *modes != 0 {
			w.K = *modes
		}
		if *ff != 0 {
			w.FF = *ff
		}
		if *batch != 0 {
			w.Batch = *batch
		}
		if *initBatch != 0 {
			w.InitBatch = *initBatch
		}
		if spec.Modes == 0 {
			spec.Modes = w.K
		}
		if spec.ForgetFactor == 0 {
			spec.ForgetFactor = w.FF
		}
		replay = func() (parsvd.Source, error) { return parsvd.FromWorkload(w, 1) }
	case *gnc != "":
		if *variable == "" {
			log.Fatal("-gnc needs -var")
		}
		b := *batch
		if b == 0 {
			b = 8
		}
		path, v := *gnc, *variable
		replay = func() (parsvd.Source, error) { return parsvd.FromNetCDF(path, v, b) }
	default:
		log.Print("pick a stream: -workload or -gnc file -var v")
		flag.Usage()
		os.Exit(2)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	c, err := coord.New(coord.Config{
		Nodes:  nodeList,
		Shards: *shards,
		Model:  *model,
		Spec:   spec,
		Replay: replay,
		Retry:  client.RetryPolicy{MaxAttempts: *retries},
		Keep:   *keep,
		Logf:   log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("plan over %d nodes: %s", len(nodeList), c.Plan())

	src, err := replay()
	if err != nil {
		log.Fatal(err)
	}
	merged, err := c.Run(ctx, src)
	if err != nil {
		log.Fatal(err)
	}
	defer merged.Close()

	res, err := merged.Result()
	if err != nil {
		log.Fatal(err)
	}
	stats := merged.Stats()
	fmt.Printf("reduced %d shards: %d x %d modes, %d snapshots, %d updates\n",
		*shards, res.Modes.Rows(), res.Modes.Cols(), stats.Snapshots, stats.Updates)
	fmt.Printf("truncation bound: %.6e\n", merged.MergeBound())
	if !*quiet {
		for i, sv := range res.Singular {
			fmt.Printf("  sigma[%2d] = %.12e\n", i+1, sv)
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := merged.Save(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("merged checkpoint written to %s\n", *out)
	}
	if *target != "" {
		name := *targetModel
		if name == "" {
			name = *model
		}
		if err := coord.Install(ctx, merged, *target, name, client.RetryPolicy{MaxAttempts: *retries}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("merged model installed as %s on %s\n", name, *target)
	}
}

// splitNodes parses the -nodes list, dropping empty entries.
func splitNodes(s string) []string {
	var out []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

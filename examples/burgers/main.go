// Example: distributed coherent-structure extraction for a nonlinear PDE.
//
// This is the paper's headline use case (§4.3) as a library consumer
// would write it: snapshots of the viscous Burgers equation are streamed
// through the parallel randomized SVD (four in-process ranks behind one
// facade handle), and the resulting global modes are compared with the
// exact truncated SVD of the full matrix. Run with:
//
//	go run ./examples/burgers
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	parsvd "goparsvd"
	"goparsvd/datasets"
	"goparsvd/postproc"
)

func main() {
	cfg := datasets.Burgers(4096, 240, 1000)
	const (
		ranks = 4
		k     = 6
		batch = 60
	)

	fmt.Printf("Burgers snapshots: %d grid points x %d times, Re = %g\n", cfg.Nx, cfg.Nt, cfg.Re)
	fmt.Printf("running %d ranks, K = %d, batch = %d\n\n", ranks, k, batch)

	svd, err := parsvd.New(
		parsvd.WithModes(k),
		parsvd.WithForgetFactor(1.0), // reproduce the one-shot SVD
		parsvd.WithLowRank(),         // randomized SVDs inside (paper §3.3)
		parsvd.WithBackend(parsvd.Parallel),
		parsvd.WithRanks(ranks),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer svd.Close()

	a := cfg.Snapshots()
	res, err := svd.Fit(context.Background(), parsvd.FromMatrix(a, batch))
	if err != nil {
		log.Fatal(err)
	}

	// Reference: exact truncated SVD of the full matrix (affordable at
	// this example's scale).
	exactModes, exactVals, _, err := parsvd.TruncatedSVD(a, k)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%6s  %14s  %14s  %10s\n", "mode", "exact sigma", "streamed", "mode cosine")
	errs := postproc.CompareModes(exactModes, res.Modes)
	for i := 0; i < k; i++ {
		fmt.Printf("%6d  %14.6e  %14.6e  %10.7f\n", i+1, exactVals[i], res.Singular[i], errs[i].Cosine)
	}

	st := svd.Stats()
	fmt.Printf("\ntraffic: %d messages, %.1f MB across %d ranks\n",
		st.Messages, float64(st.Bytes)/1e6, st.Ranks)

	fmt.Println()
	postproc.ASCIIPlot(os.Stdout, "leading Burgers modes (streamed, distributed)",
		72, 14, []string{"mode 1", "mode 2"}, res.Modes.Col(0), res.Modes.Col(1))
}

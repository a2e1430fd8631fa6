package core

import (
	"testing"

	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/mpi/tcptransport"
	"goparsvd/internal/testutil"
)

// TestParallelIncorporateSteadyAllocs: on a two-rank world over real
// loopback sockets (tcptransport.LocalWorld), a streaming update at the
// fit-distributed shape (2048 rows per rank, K = 16, B = 16) allocates
// nothing after two warm-up updates. The count covers the whole process —
// both ranks' engines, their distributed QR and broadcasts, and each
// transport's socket readers — so it is zero on each rank.
func TestParallelIncorporateSteadyAllocs(t *testing.T) {
	const ranks, rows, k, b = 2, 2048, 16, 16
	ts, err := tcptransport.LocalWorld(ranks, tcptransport.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := testutil.NewRand(9)
	var batches [3][ranks]*mat.Dense
	for i := range batches {
		for r := range ranks {
			batches[i][r] = testutil.RandomDense(rows, b, rng)
		}
	}
	cmds := make([]chan int, ranks)
	done := make(chan error, ranks)
	for r, tr := range ts {
		cmds[r] = make(chan int)
		go func() {
			_, err := mpi.RunRank(tr, r, func(c *mpi.Comm) {
				eng := NewParallel(c, Options{K: k, ForgetFactor: 1})
				must(eng.Initialize(batches[0][r]))
				done <- nil
				for i := range cmds[r] {
					must(eng.IncorporateData(batches[i%len(batches)][r]))
					done <- nil
				}
			})
			tr.Close()
			done <- err
		}()
	}
	wait := func() {
		for range ranks {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
	wait() // seeded
	n := 0
	update := func() {
		n++
		for _, c := range cmds {
			c <- n
		}
		wait()
	}
	update()
	update()
	if !raceEnabled {
		if a := testing.AllocsPerRun(20, update); a != 0 {
			t.Errorf("steady two-rank update allocates %v times across both ranks, want 0", a)
		}
	}
	for _, c := range cmds {
		close(c)
	}
	wait()
}

package parsvd

import (
	"errors"
	"strings"
	"testing"

	"goparsvd/internal/core"
	"goparsvd/internal/mpi"
	"goparsvd/internal/testutil"
)

// TestParallelDispatchReportsOriginatingPanic: when one rank fails
// mid-collective, the Parallel backend reports that rank's panic, never
// the abort echo of the peers it left blocked, whichever reply arrives
// first.
func TestParallelDispatchReportsOriginatingPanic(t *testing.T) {
	rng := testutil.NewRand(61)
	a := testutil.RandomDense(40, 9, rng)
	for trial := 0; trial < 20; trial++ {
		pe := newParallelEngine(core.Options{K: 3, ForgetFactor: 1}, 4)
		if err := pe.push(a.SliceCols(0, 4)); err != nil {
			t.Fatal(err)
		}
		// Rank 0 gets a batch one column wider than its peers': the peers
		// send their R factors and block on their Q blocks, and rank 0
		// panics stacking R factors narrower than its own.
		_, err := pe.dispatch(func(rank int) parOp {
			p := pe.parts[rank]
			cols := 8
			if rank == 0 {
				cols = 9
			}
			return parOp{block: a.Slice(p.Start, p.End, 4, cols)}
		})
		pe.close()
		if err == nil {
			t.Fatal("a mismatched batch width went unreported")
		}
		if errors.Is(err, mpi.ErrAborted) {
			t.Fatalf("trial %d: got the abort echo %q, want rank 0's panic", trial, err)
		}
		if !strings.Contains(err.Error(), "rank 0") {
			t.Fatalf("trial %d: err = %q, want rank 0's panic", trial, err)
		}
	}
}

package parsvd

import (
	"errors"
	"strings"
	"testing"

	"goparsvd/internal/core"
	"goparsvd/internal/mpi"
	"goparsvd/internal/testutil"
)

// TestParallelDispatchReportsOriginatingError: when one rank's engine
// returns an error mid-collective, the Parallel backend fails with that
// rank's error wrapped in ErrEngineFailed, never with the abort echo of
// the peers it left blocked, whichever reply arrives first.
func TestParallelDispatchReportsOriginatingError(t *testing.T) {
	rng := testutil.NewRand(61)
	a := testutil.RandomDense(40, 9, rng)
	for trial := 0; trial < 20; trial++ {
		pe := newParallelEngine(core.Options{K: 3, ForgetFactor: 1}, 4)
		if err := pe.push(a.SliceCols(0, 4)); err != nil {
			t.Fatal(err)
		}
		// Rank 0 gets a batch one column wider than its peers': the peers
		// send their R factors and block on their Q blocks, and rank 0's
		// TSQR refuses R factors narrower than its own.
		_, err := pe.dispatch("parallel update", func(rank int) parOp {
			p := pe.parts[rank]
			cols := 8
			if rank == 0 {
				cols = 9
			}
			return parOp{block: a.Slice(p.Start, p.End, 4, cols)}
		})
		pe.close()
		if !errors.Is(err, ErrEngineFailed) {
			t.Fatalf("trial %d: err = %v, want ErrEngineFailed", trial, err)
		}
		if errors.Is(err, mpi.ErrAborted) {
			t.Fatalf("trial %d: got the abort echo %q, want rank 0's error", trial, err)
		}
		if !strings.Contains(err.Error(), "rank 0: tsqr: rank 1 sent a 7x7 R factor, want at most 8x8") {
			t.Fatalf("trial %d: err = %q, want rank 0's TSQR error", trial, err)
		}
		if err := pe.push(a.SliceCols(4, 8)); err != pe.failed {
			t.Fatalf("trial %d: a push after the failure returned %v, want the failure", trial, err)
		}
	}
}

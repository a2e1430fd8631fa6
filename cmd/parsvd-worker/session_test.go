package main

import (
	"bytes"
	"testing"

	"goparsvd/internal/mat"
	"goparsvd/internal/testutil"
)

// TestSketchDecodeSteadyAllocs: a PUSH-SKETCH body of a steady shape (one
// rank's 2048 rows of Q at sketch rank 8, batch width 16) is decoded and
// rebuilt into reused storage, allocating nothing, and the rebuilt block is
// Q·S.
func TestSketchDecodeSteadyAllocs(t *testing.T) {
	rng := testutil.NewRand(1)
	q, s := testutil.RandomDense(2048, 8, rng), testutil.RandomDense(8, 16, rng)
	body := mat.AppendFactorPair(nil, q, s)
	var d sketchDecoder
	scratch := make([]byte, 32<<10)
	r := bytes.NewReader(body)
	decode := func() *mat.Dense {
		r.Reset(body)
		block, err := d.read(r, len(body), scratch)
		if err != nil {
			t.Fatal(err)
		}
		return block
	}
	if got := decode(); !mat.EqualApprox(got, mat.Mul(q, s), 0) {
		t.Fatal("rebuilt block differs from Q·S")
	}
	if n := testing.AllocsPerRun(20, func() { decode() }); n != 0 {
		t.Fatalf("steady PUSH-SKETCH decode allocates %v times, want 0", n)
	}
}

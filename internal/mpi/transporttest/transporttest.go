// Package transporttest is the transport-conformance suite shared by every
// mpi.Transport implementation: the same framing round-trip properties run
// against the in-process channel fabric and the TCP backend, so a payload
// that survives one transport provably survives the other bit-for-bit.
package transporttest

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
)

// Runner executes fn on size ranks over some transport and reports the
// first rank failure, mirroring mpi.Run's contract. mpi.Run itself is a
// Runner (modulo the ignored Stats); tcptransport.Run is the other.
type Runner func(size int, fn func(c *mpi.Comm)) error

// RoundTrip runs the framing conformance suite against the given runner.
// Every case ships a payload from rank 0 to rank 1, has rank 1 echo it
// back, and requires the round-tripped bits to match exactly — vectors
// (broadcast from either end) and matrices, empty and single-element edge
// shapes, and adversarial float values (NaN, ±Inf, signed zero, denormals)
// that would expose any lossy re-encoding. A failed call panics, which the
// runner reports as that rank's failure.
func RoundTrip(t *testing.T, run Runner) {
	t.Helper()

	t.Run("vectors", func(t *testing.T) {
		payloads := [][]float64{
			{},  // empty
			{0}, // single element
			{math.NaN(), math.Inf(1), math.Inf(-1)},
			{math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64},
			{math.MaxFloat64, -math.MaxFloat64, 1e-300, math.Pi},
			randomVector(257, 11),
		}
		err := run(2, func(c *mpi.Comm) {
			for i, want := range payloads {
				var there, back []float64
				if c.Rank() == 0 {
					there = want
				}
				there = must1(c.BcastFloatsInto(0, there))
				back = must1(c.BcastFloatsInto(1, append(back, there...)))
				if c.Rank() == 0 && !equalBits(back, want) {
					t.Errorf("vector case %d: round trip changed bits: got %v want %v", i, back, want)
				}
			}
		})
		if err != nil {
			t.Fatalf("vector round trip: %v", err)
		}
	})

	t.Run("matrices", func(t *testing.T) {
		shapes := [][2]int{
			{0, 0}, // empty
			{1, 1}, // single element
			{1, 7}, {7, 1}, {3, 5}, {16, 16}, {31, 2},
		}
		err := run(2, func(c *mpi.Comm) {
			for i, sh := range shapes {
				tag := 200 + i
				want := randomMatrix(sh[0], sh[1], int64(1000+i))
				got := new(mat.Dense)
				switch c.Rank() {
				case 0:
					must(c.SendMatrix(1, tag, want))
					must(c.RecvMatrixInto(1, tag, got))
					r, cl := got.Dims()
					if r != sh[0] || cl != sh[1] {
						t.Errorf("matrix case %d: round trip changed shape to %dx%d, want %dx%d", i, r, cl, sh[0], sh[1])
						continue
					}
					if !equalBits(got.RawData(), want.RawData()) {
						t.Errorf("matrix case %d (%dx%d): round trip changed bits", i, sh[0], sh[1])
					}
				case 1:
					must(c.RecvMatrixInto(0, tag, got))
					must(c.SendMatrix(0, tag, got))
				}
			}
		})
		if err != nil {
			t.Fatalf("matrix round trip: %v", err)
		}
	})

	t.Run("property-random-shapes", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 12; trial++ {
			p := 2 + rng.Intn(3)
			rows := rng.Intn(20)
			cols := rng.Intn(20)
			seed := rng.Int63()
			err := run(p, func(c *mpi.Comm) {
				// Ring: each rank forwards the matrix one hop; after p hops
				// rank 0 must hold the original bits.
				want := randomMatrix(rows, cols, seed)
				got := new(mat.Dense)
				if c.Rank() == 0 {
					must(c.SendMatrix(1, 7, want))
					must(c.RecvMatrixInto(c.Size()-1, 7, got))
					if !equalBits(got.RawData(), want.RawData()) {
						t.Errorf("trial %d (%d ranks, %dx%d): ring round trip changed bits", trial, p, rows, cols)
					}
				} else {
					must(c.RecvMatrixInto(c.Rank()-1, 7, got))
					must(c.SendMatrix((c.Rank()+1)%c.Size(), 7, got))
				}
			})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	})
}

// Into runs the receive-into-storage conformance suite against the given
// runner: RecvMatrixInto, BcastMatrixInto and BcastFloatsInto deliver the
// sent bits into the caller's storage, reuse it once it holds the values,
// and never let a recycled payload alias a matrix already received;
// GatherMatrixViews delivers the sent bits in the payloads themselves,
// which ReleaseViews hands back exactly once; a rank that panics after
// recycling payloads still aborts the world; and after an abort every
// Comm call returns ErrAborted.
func Into(t *testing.T, run Runner) {
	t.Helper()

	t.Run("recycled-receives", func(t *testing.T) {
		const rounds = 6
		err := run(3, func(c *mpi.Comm) {
			var got, prev mat.Dense
			var vec []float64
			gathered := []*mat.Dense{nil, new(mat.Dense), new(mat.Dense)}
			for i := 0; i < rounds; i++ {
				// Shapes alternate, so a payload recycled from one round
				// is offered to a message of another shape.
				rows, cols := 3+i%2, 4
				want := randomMatrix(rows, cols, int64(10*i))
				if c.Rank() == 0 {
					got.Assign(rows, cols, want.RawData())
				}
				must(c.BcastMatrixInto(0, &got))
				if !equalBits(got.RawData(), want.RawData()) || got.Rows() != rows {
					t.Errorf("round %d rank %d: BcastMatrixInto delivered other bits", i, c.Rank())
				}
				if i > 0 && !equalBits(prev.RawData(), randomMatrix(3+(i-1)%2, 4, int64(10*(i-1))).RawData()) {
					t.Errorf("round %d rank %d: an earlier receive changed under a later one", i, c.Rank())
				}
				prev.Assign(got.Rows(), got.Cols(), got.RawData())

				wantVec := randomVector(5+i%3, int64(i))
				if c.Rank() == 0 {
					vec = append(vec[:0], wantVec...)
				}
				vec = must1(c.BcastFloatsInto(0, vec))
				if !equalBits(vec, wantVec) {
					t.Errorf("round %d rank %d: BcastFloatsInto delivered other bits", i, c.Rank())
				}

				mine := randomMatrix(2, 3+c.Rank(), int64(100*i+c.Rank()))
				gathered[0] = mine
				must(c.GatherMatrixViews(0, mine, gathered))
				if c.Rank() == 0 {
					for src := 1; src < c.Size(); src++ {
						if w := randomMatrix(2, 3+src, int64(100*i+src)); !equalBits(gathered[src].RawData(), w.RawData()) || gathered[src].Cols() != 3+src {
							t.Errorf("round %d: GatherMatrixViews from rank %d delivered other bits", i, src)
						}
					}
				}
				c.ReleaseViews(0, gathered)
				c.ReleaseViews(0, gathered) // a second release hands nothing back
				if c.Rank() == 0 && !gathered[1].IsEmpty() {
					t.Errorf("round %d: ReleaseViews left a view of a released payload", i)
				}
			}
		})
		if err != nil {
			t.Fatalf("receive-into round trips: %v", err)
		}
	})

	t.Run("abort-after-recycling", func(t *testing.T) {
		err := run(2, func(c *mpi.Comm) {
			var m mat.Dense
			for i := 0; i < 3; i++ {
				if c.Rank() == 0 {
					must(c.SendMatrix(1, 9, randomMatrix(4, 4, int64(i))))
				} else {
					must(c.RecvMatrixInto(0, 9, &m))
				}
			}
			if c.Rank() == 1 {
				panic("rank 1 fails holding recycled payloads")
			}
			c.RecvMatrixInto(1, 9, &m) // unblocked by the abort
		})
		var re *mpi.RankError
		if !errors.As(err, &re) || re.Rank != 1 {
			t.Fatalf("abort with recycled payloads: err %v, want rank 1's panic", err)
		}
	})

	t.Run("calls-after-abort", func(t *testing.T) {
		err := run(3, func(c *mpi.Comm) {
			if c.Rank() == 0 {
				panic("rank 0 fails")
			}
			var m mat.Dense
			views := []*mat.Dense{new(mat.Dense), new(mat.Dense), new(mat.Dense)}
			other := 3 - c.Rank()
			blocked := c.RecvMatrixInto(0, 1, &m) // returns once rank 0's panic aborts the world
			_, bcastErr := c.BcastFloatsInto(c.Rank(), []float64{1})
			for name, err := range map[string]error{
				"blocked RecvMatrixInto": blocked,
				"SendMatrix":             c.SendMatrix(other, 1, mat.Eye(2)),
				"RecvMatrixInto":         c.RecvMatrixInto(other, 1, &m),
				"BcastMatrixInto":        c.BcastMatrixInto(0, &m),
				"BcastFloatsInto":        bcastErr,
				"GatherMatrixViews":      c.GatherMatrixViews(0, mat.Eye(2), nil),
				"GatherMatrixViews root": c.GatherMatrixViews(c.Rank(), mat.Eye(2), views),
				"Barrier":                c.Barrier(),
			} {
				if !errors.Is(err, mpi.ErrAborted) {
					t.Errorf("rank %d: %s after an abort returned %v, want ErrAborted", c.Rank(), name, err)
				}
			}
		})
		var re *mpi.RankError
		if !errors.As(err, &re) || re.Rank != 0 {
			t.Fatalf("err %v, want rank 0's panic", err)
		}
	})
}

// must panics with a failed call's error, which the runner reports as the
// calling rank's failure.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// must1 is must for a call that also returns a value.
func must1[T any](v T, err error) T {
	must(err)
	return v
}

// randomVector mixes ordinary values with specials so every case carries at
// least some adversarial bit patterns.
func randomVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		switch rng.Intn(10) {
		case 0:
			v[i] = math.NaN()
		case 1:
			v[i] = math.Inf(1 - 2*rng.Intn(2))
		case 2:
			v[i] = math.Copysign(0, -1)
		default:
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
	}
	return v
}

func randomMatrix(r, c int, seed int64) *mat.Dense {
	m := mat.New(r, c)
	copy(m.RawData(), randomVector(r*c, seed))
	return m
}

// equalBits compares float slices by IEEE-754 bit pattern, so NaNs compare
// equal to themselves and -0 differs from +0.
func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

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
// back, and requires the round-tripped bits to match exactly — vectors and
// matrices, empty and single-element edge shapes, and adversarial float
// values (NaN, ±Inf, signed zero, denormals) that would expose any lossy
// re-encoding.
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
				tag := 100 + i
				switch c.Rank() {
				case 0:
					c.Send(1, tag, want)
					got := c.Recv(1, tag)
					if !equalBits(got, want) {
						t.Errorf("vector case %d: round trip changed bits: got %v want %v", i, got, want)
					}
				case 1:
					c.Send(0, tag, c.Recv(0, tag))
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
				switch c.Rank() {
				case 0:
					c.SendMatrix(1, tag, want)
					got := c.RecvMatrix(1, tag)
					r, cl := got.Dims()
					if r != sh[0] || cl != sh[1] {
						t.Errorf("matrix case %d: round trip changed shape to %dx%d, want %dx%d", i, r, cl, sh[0], sh[1])
						continue
					}
					if !equalBits(got.RawData(), want.RawData()) {
						t.Errorf("matrix case %d (%dx%d): round trip changed bits", i, sh[0], sh[1])
					}
				case 1:
					c.SendMatrix(0, tag, c.RecvMatrix(0, tag))
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
				if c.Rank() == 0 {
					c.SendMatrix(1, 7, want)
					got := c.RecvMatrix(c.Size()-1, 7)
					if !equalBits(got.RawData(), want.RawData()) {
						t.Errorf("trial %d (%d ranks, %dx%d): ring round trip changed bits", trial, p, rows, cols)
					}
				} else {
					c.SendMatrix((c.Rank()+1)%c.Size(), 7, c.RecvMatrix(c.Rank()-1, 7))
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
// recycling payloads still aborts the world.
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
				c.BcastMatrixInto(0, &got)
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
				vec = c.BcastFloatsInto(0, vec)
				if !equalBits(vec, wantVec) {
					t.Errorf("round %d rank %d: BcastFloatsInto delivered other bits", i, c.Rank())
				}

				mine := randomMatrix(2, 3+c.Rank(), int64(100*i+c.Rank()))
				gathered[0] = mine
				c.GatherMatrixViews(0, mine, gathered)
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
					c.SendMatrix(1, 9, randomMatrix(4, 4, int64(i)))
				} else {
					c.RecvMatrixInto(0, 9, &m)
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

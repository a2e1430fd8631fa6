package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPartitionExact(t *testing.T) {
	parts := Partition(10, 2)
	if len(parts) != 2 || parts[0] != (Range{0, 5}) || parts[1] != (Range{5, 10}) {
		t.Fatalf("parts = %v", parts)
	}
}

func TestPartitionWithRemainder(t *testing.T) {
	parts := Partition(10, 3) // 4, 3, 3
	want := []Range{{0, 4}, {4, 7}, {7, 10}}
	for i := range want {
		if parts[i] != want[i] {
			t.Fatalf("parts = %v, want %v", parts, want)
		}
	}
}

func TestPartitionSinglePart(t *testing.T) {
	parts := Partition(7, 1)
	if len(parts) != 1 || parts[0] != (Range{0, 7}) {
		t.Fatalf("parts = %v", parts)
	}
}

func TestPartitionInvalidPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero parts":      func() { Partition(5, 0) },
		"more parts than": func() { Partition(3, 5) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		})
	}
}

// Property: partitions tile [0, n) exactly, in order, with balanced sizes.
func TestPropertyPartitionTiles(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(16)
		n := p + rng.Intn(1000)
		parts := Partition(n, p)
		if parts[0].Start != 0 || parts[len(parts)-1].End != n {
			return false
		}
		minSz, maxSz := n, 0
		for i, pr := range parts {
			if i > 0 && pr.Start != parts[i-1].End {
				return false
			}
			if pr.Len() < minSz {
				minSz = pr.Len()
			}
			if pr.Len() > maxSz {
				maxSz = pr.Len()
			}
		}
		return maxSz-minSz <= 1
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAbsCosine(t *testing.T) {
	if got := AbsCosine([]float64{1, 0}, []float64{1, 0}); got != 1 {
		t.Fatalf("identical vectors: %g", got)
	}
	if got := AbsCosine([]float64{1, 0}, []float64{-1, 0}); got != 1 {
		t.Fatalf("sign-flipped vectors: %g", got)
	}
	if got := AbsCosine([]float64{1, 0}, []float64{0, 1}); got != 0 {
		t.Fatalf("orthogonal vectors: %g", got)
	}
	if got := AbsCosine([]float64{0, 0}, []float64{1, 1}); got != 0 {
		t.Fatalf("zero vector: %g", got)
	}
	got := AbsCosine([]float64{1, 1}, []float64{1, 0})
	if math.Abs(got-1/math.Sqrt2) > 1e-15 {
		t.Fatalf("45°: %g", got)
	}
}

func TestAbsCosineLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	AbsCosine([]float64{1}, []float64{1, 2})
}

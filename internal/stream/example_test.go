package stream_test

import (
	"fmt"

	"goparsvd/internal/mat"
	"goparsvd/internal/stream"
)

// ExampleNew demonstrates the serial streaming workflow: initialize with
// the first batch, stream the rest, read off the spectrum.
func ExampleNew() {
	// Every snapshot is a multiple of one spatial pattern, so the data has
	// exactly one nonzero singular value.
	batch := mat.New(100, 4)
	for i := 0; i < 100; i++ {
		for j := 0; j < 4; j++ {
			batch.Set(i, j, float64(i+1))
		}
	}
	svd := stream.New(stream.Options{K: 2, FF: 1.0})
	if err := svd.Initialize(batch); err != nil {
		panic(err)
	}
	if err := svd.IncorporateData(batch); err != nil {
		panic(err)
	}

	s := svd.SingularValues()
	fmt.Printf("snapshots seen: %d\n", svd.SnapshotsSeen())
	fmt.Printf("second value negligible: %v\n", s[1] < 1e-6*s[0])
	// Output:
	// snapshots seen: 8
	// second value negligible: true
}

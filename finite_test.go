package parsvd

import (
	"fmt"
	"testing"

	"goparsvd/internal/mat"
	"goparsvd/internal/testutil"
)

// TestCheckBatchNonFinite drives the facade's batch validation with NaN,
// +Inf and −Inf at every position of batches of every tail length and
// requires the rejection to name the offending value.
func TestCheckBatchNonFinite(t *testing.T) {
	testutil.ForEachNonFinite(func(x []float64, bad int) {
		b := mat.NewFromData(len(x), 1, x)
		want := fmt.Sprintf("parsvd: snapshot batch contains a non-finite value (%g)", x[bad])
		if err := checkBatch(b, 0); err == nil || err.Error() != want {
			t.Fatalf("len %d, %g at %d: err = %v, want %q", len(x), x[bad], bad, err, want)
		}
	})
}

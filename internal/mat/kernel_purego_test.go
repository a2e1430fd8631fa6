//go:build purego

package mat

import (
	"slices"
	"testing"
)

// TestPuregoKernel pins the purego build: no assembly kernel is compiled
// in, so the pure-Go reference is the only kernel and the active one.
func TestPuregoKernel(t *testing.T) {
	if got := KernelName(); got != "go-8x4" {
		t.Errorf("KernelName() = %q under purego, want go-8x4", got)
	}
	if got := AvailableKernels(); !slices.Equal(got, []string{"go-8x4"}) {
		t.Errorf("AvailableKernels() = %v under purego, want [go-8x4]", got)
	}
}

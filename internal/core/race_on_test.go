//go:build race

package core

// raceEnabled lets allocation-count tests skip under the race detector,
// whose instrumentation allocates where the plain build does not. The
// non-race run (make dist-smoke's allocation step) enforces the counts.
const raceEnabled = true

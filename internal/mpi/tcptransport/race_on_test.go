//go:build race

package tcptransport

// raceEnabled lets allocation-count tests skip under the race detector,
// whose instrumentation keeps slices.Grow from folding its temporary into
// the grown slice, so a read that reserves storage allocates twice. The
// non-race test run enforces the counts.
const raceEnabled = true

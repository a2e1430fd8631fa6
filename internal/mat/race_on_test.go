//go:build race

package mat

// raceEnabled lets allocation-count tests skip under the race detector,
// where sync.Pool deliberately drops a fraction of Puts (so pool Gets
// allocate nondeterministically). CI's bench-trajectory job still enforces
// the zero-alloc claims in a non-race build.
const raceEnabled = true

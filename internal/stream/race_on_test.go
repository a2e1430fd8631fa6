//go:build race

package stream

// raceEnabled lets the tests of buffer reuse skip what the race detector
// changes: its sync.Pool drops a random quarter of what it is given, and
// its instrumentation allocates where the plain build does not. The plain
// `go test ./...` of make check enforces both.
const raceEnabled = true

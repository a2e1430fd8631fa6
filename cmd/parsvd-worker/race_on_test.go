//go:build race

package main

// raceEnabled lets allocation-count tests skip under the race detector,
// whose instrumentation allocates where the plain build does not. The
// plain `go test ./...` of make check enforces the counts.
const raceEnabled = true

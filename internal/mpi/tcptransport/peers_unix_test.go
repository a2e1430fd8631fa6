//go:build unix

package tcptransport_test

import (
	"testing"

	"goparsvd/internal/mpi"
	"goparsvd/internal/mpi/tcptransport"
	"goparsvd/internal/mpi/transporttest"
)

func init() { runners = append(runners, namedRunner{"peers", runPeers}) }

// runPeers is runTCP over one socketpair per rank pair, handed to each
// endpoint through Options.Peers as a launcher wires its workers.
func runPeers(size int, fn func(c *mpi.Comm)) error {
	_, err := tcptransport.RunSocketpair(size, testOptions(), fn)
	return err
}

// TestPeersTransportRoundTrip runs the shared transport-conformance suite
// over links adopted through Options.Peers.
func TestPeersTransportRoundTrip(t *testing.T) {
	transporttest.RoundTrip(t, runPeers)
}

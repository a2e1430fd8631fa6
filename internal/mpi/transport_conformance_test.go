package mpi_test

import (
	"testing"

	"goparsvd/internal/mpi"
	"goparsvd/internal/mpi/transporttest"
)

// TestChanTransportRoundTrip runs the shared transport-conformance suite
// against the default in-process channel fabric. The TCP backend runs the
// identical suite in internal/mpi/tcptransport, so both transports are held
// to the same bit-for-bit framing contract.
func TestChanTransportRoundTrip(t *testing.T) {
	transporttest.RoundTrip(t, func(size int, fn func(c *mpi.Comm)) error {
		_, err := mpi.Run(size, fn)
		return err
	})
}

// TestChanTransportInto runs the receive-into conformance suite against
// the in-process fabric; tcptransport runs the same suite.
func TestChanTransportInto(t *testing.T) {
	transporttest.Into(t, func(size int, fn func(c *mpi.Comm)) error {
		_, err := mpi.Run(size, fn)
		return err
	})
}

package tcptransport

import (
	"net"
	"strings"
	"testing"
)

// world is one way of building a whole world of endpoints.
type world struct {
	name  string
	build func(size int, base Options) ([]*Transport, error)
}

// worlds are the ways an endpoint gets its links: the TCP rendezvous here,
// plus pre-connected links handed over in Options.Peers where the platform
// has socketpairs (socketpair_unix_test.go).
var worlds = []world{{"rendezvous", LocalWorld}}

// TestPeersRejectMalformed: New refuses a Peers slice of the wrong
// length, one missing a link to another rank, and one holding a link at
// the endpoint's own rank.
func TestPeersRejectMalformed(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	for _, tc := range []struct {
		name  string
		peers []net.Conn
		want  string
	}{
		{"wrong length", []net.Conn{nil, a, b}, "3 peer links for a world of 2"},
		{"nil peer", []net.Conn{nil, nil}, "rank 0 has no link to rank 1"},
		{"self link", []net.Conn{a, b}, "rank 0 given a link to itself"},
	} {
		tr, err := New(Options{Rank: 0, Size: 2, Peers: tc.peers})
		if err == nil {
			tr.Close()
			t.Errorf("%s: New accepted %v", tc.name, tc.peers)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

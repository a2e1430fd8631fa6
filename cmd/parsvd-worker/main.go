// Command parsvd-worker is one rank of a persistent multi-process
// distributed streaming SVD: each worker process owns one MPI rank,
// connects to its peers over TCP (internal/mpi/tcptransport), and holds a
// live core.Parallel engine for the whole session. Stdin carries framed
// commands (INIT with the engine configuration, PUSH with this rank's row
// block of real snapshot data, PUSH-SKETCH, SPECTRUM, MODES-SHA, STATS,
// SAVE, SHUTDOWN) and stdout carries one framed reply per command; rank 0
// first prints a RENDEZVOUS frame with its bound address. This is the
// protocol behind the parsvd facade's Distributed backend and
// internal/launch.Session (see internal/launch/proto.go). Logs go to
// stderr.
//
// Workers are normally spawned by a launcher (the facade, or
// internal/launch.StartSession), but they are plain processes: starting
// rank 0 by hand and pointing the other ranks at its address with
// -rendezvous builds the same world across terminals or machines, with
// each process's stdin and stdout carrying its session frames. Exit
// status is nonzero if this rank — or, via the abort protocol, any peer —
// fails; the last stdout frame is then an ERR frame naming the cause.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"goparsvd/internal/mpi/tcptransport"
)

func main() {
	log.SetFlags(0)
	log.SetOutput(os.Stderr)

	var (
		rank        = flag.Int("rank", 0, "this process's rank in [0, np)")
		np          = flag.Int("np", 1, "world size (number of worker processes)")
		rendezvous  = flag.String("rendezvous", "", "rank 0's address (required for rank > 0)")
		listen      = flag.String("listen", "127.0.0.1:0", "rank 0: rendezvous bind address; others: mesh listener bind address")
		advertise   = flag.String("advertise", "", "override the address advertised to peers (for NAT/multi-host setups)")
		idleTimeout = flag.Duration("idle-timeout", 2*time.Minute, "failure-detection window: abort if a peer is silent this long")
		dialTimeout = flag.Duration("dial-timeout", 30*time.Second, "rendezvous/handshake deadline")
	)
	flag.Parse()
	log.SetPrefix(fmt.Sprintf("parsvd-worker[%d]: ", *rank))

	if err := runSession(tcptransport.Options{
		Rank:        *rank,
		Size:        *np,
		Rendezvous:  *rendezvous,
		ListenAddr:  *listen,
		Advertise:   *advertise,
		DialTimeout: *dialTimeout,
		IdleTimeout: *idleTimeout,
	}); err != nil {
		log.Fatalf("session failed: %v", err)
	}
	log.Printf("session done")
}

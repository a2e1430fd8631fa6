// Command parsvd-worker is one rank of a persistent multi-process
// distributed streaming SVD: each worker process owns one MPI rank,
// exchanges collectives with its peers over a full mesh of stream links
// (internal/mpi/tcptransport), and holds a live core.Parallel engine for
// the whole session; the first PUSH seeds it with the same distributed QR
// update every later PUSH runs. Its configuration is on the command line: rank, world
// size and the engine spec (-k, -ff, -lowrank, -oversample, -power-iters,
// -seed; a missing flag is the field's zero value). A spec
// core.Options.Validate refuses gets one ERR frame naming the field and a
// nonzero exit, before the mesh is adopted or dialed. Stdin carries only
// data and queries as framed commands (PUSH with this rank's row block of
// real snapshot data, PUSH-SKETCH, MODES-SHA, SAVE, SHUTDOWN) and stdout
// carries one framed reply per command. This is the protocol behind the
// parsvd facade's Distributed backend and internal/launch.Session (see
// internal/launch/proto.go). Logs go to stderr.
//
// A launcher (the facade, or internal/launch.StartSession) wires the mesh
// before it starts any rank: with -inherited-mesh, fd 3+i is this rank's
// end of a connected AF_UNIX socketpair to the i-th other rank in rank
// order, so a launched worker never listens, dials or sends a RENDEZVOUS
// frame. Workers are also plain processes that can be started by hand:
// rank 0 binds -listen and first prints a RENDEZVOUS frame with its bound
// address, and pointing the other ranks at it with -rendezvous builds the
// same world over TCP across terminals or machines, with each process's
// stdin and stdout carrying its session frames. Exit status is nonzero if
// this rank — or, via the abort protocol, any peer — fails; the last
// stdout frame is then an ERR frame naming the cause.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"goparsvd/internal/launch"
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
		inherited   = flag.Bool("inherited-mesh", false, "peer links are inherited from the launcher: fd 3+i is a connected socket to the i-th other rank in rank order (no rendezvous)")
		spec        = launch.SpecFlags(flag.CommandLine)
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
	}, *inherited, spec.Options()); err != nil {
		log.Fatalf("session failed: %v", err)
	}
	log.Printf("session done")
}

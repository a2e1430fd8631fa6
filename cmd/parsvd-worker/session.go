package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"

	"goparsvd/internal/core"
	"goparsvd/internal/launch"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/mpi/tcptransport"
	"goparsvd/internal/rla"
)

// runSession runs the worker: the process stays alive as one rank of a
// persistent world, reading framed commands from stdin and answering on
// stdout (see internal/launch/proto.go). Snapshot data arrives over the
// wire — the launcher scatters row blocks — and the rank's core engine
// incorporates it through the collective streaming pipeline.
//
// Every command is answered by exactly one reply frame. Any failure —
// a malformed frame, an engine panic, an abort echo from a dying peer —
// is terminal: the transport is aborted (so live peers unwind), an ERR
// frame is emitted best-effort, and the process exits nonzero. There is
// no partial recovery; a session world is either fully consistent or
// dead, which is exactly the contract the launcher enforces fleet-wide.
//
// With inheritedMesh the peer links are descriptors the launcher wired
// before exec (inheritedPeers); otherwise the ranks meet at rank 0's
// rendezvous address.
func runSession(opts tcptransport.Options, inheritedMesh bool) error {
	rank, np := opts.Rank, opts.Size
	out := bufio.NewWriter(os.Stdout)
	reply := func(verb byte, body []byte) error {
		if err := tcptransport.WriteFrame(out, verb, body); err != nil {
			return err
		}
		return out.Flush()
	}

	switch {
	case inheritedMesh:
		if opts.Rendezvous != "" {
			err := errors.New("-inherited-mesh and -rendezvous are exclusive")
			reply(launch.SessErr, []byte(err.Error()))
			return err
		}
		peers, err := inheritedPeers(rank, np)
		if err != nil {
			reply(launch.SessErr, []byte(err.Error()))
			return err
		}
		opts.Peers = peers
	case rank == 0 && np > 1:
		// A hand-started rank 0 binds the rendezvous listener first so
		// the (possibly ephemeral) address is printed before
		// tcptransport.New blocks waiting for the other ranks to dial in.
		l, err := net.Listen("tcp", opts.ListenAddr)
		if err != nil {
			reply(launch.SessErr, []byte(fmt.Sprintf("rendezvous listen: %v", err)))
			return err
		}
		opts.Listener = l
		if err := reply(launch.SessRendezvous, []byte(l.Addr().String())); err != nil {
			return err
		}
	}
	t, err := tcptransport.New(opts)
	if err != nil {
		reply(launch.SessErr, []byte(fmt.Sprintf("establishing transport: %v", err)))
		return err
	}
	log.Printf("session up: %d ranks", np)
	comm := mpi.NewComm(t, rank)

	var (
		copts     core.Options
		inited    bool
		eng       *core.Parallel
		localRows int
	)
	status := func(sha string) ([]byte, error) {
		st := t.Stats()
		s := launch.SessionStatus{
			Rank:      rank,
			Messages:  st.Messages,
			BytesSent: st.Bytes,
			Rows:      localRows,
			ModesSHA:  sha,
		}
		if rank < len(st.RecvBytes) {
			s.BytesRecv = st.RecvBytes[rank]
		}
		if eng != nil {
			s.Snapshots = eng.SnapshotsSeen()
			s.Iterations = eng.Iterations()
		}
		return json.Marshal(s)
	}
	okStatus := func(sha string) error {
		b, err := status(sha)
		if err != nil {
			return err
		}
		return reply(launch.SessOK, b)
	}

	// ingest seeds the engine with this rank's block of the first batch and
	// streams every later one.
	ingest := func(block *mat.Dense) {
		if eng == nil {
			eng = core.NewParallel(comm, copts)
			eng.Initialize(block)
			localRows = block.Rows()
		} else {
			eng.IncorporateData(block)
		}
	}

	// handle executes one command, converting engine panics (dimension
	// bugs, abort echoes from failed peers) into errors. done reports a
	// clean SHUTDOWN. A PUSH or PUSH-SKETCH arrives already decoded into
	// this rank's block; every other verb's payload is body.
	handle := func(verb byte, body []byte, block *mat.Dense) (done bool, err error) {
		defer func() {
			if v := recover(); v != nil {
				done = false
				if e, ok := v.(error); ok {
					err = e
				} else {
					err = fmt.Errorf("%v", v)
				}
			}
		}()
		switch verb {
		case launch.SessInit:
			var spec launch.EngineSpec
			if err := json.Unmarshal(body, &spec); err != nil {
				return false, fmt.Errorf("malformed INIT spec: %w", err)
			}
			copts = core.Options{
				K:            spec.K,
				ForgetFactor: spec.FF,
				R1:           spec.R1,
				LowRank:      spec.LowRank,
				RLA: rla.Options{
					Oversample: spec.Oversample,
					PowerIters: spec.PowerIters,
					Seed:       spec.Seed,
				},
			}
			if err := copts.Validate(); err != nil {
				return false, fmt.Errorf("INIT spec: %w", err)
			}
			inited = true
			return false, okStatus("")
		case launch.SessPush:
			if !inited {
				return false, errors.New("PUSH before INIT")
			}
			ingest(block)
			return false, okStatus("")
		case launch.SessPushSketch:
			if !inited {
				return false, errors.New("PUSH-SKETCH before INIT")
			}
			ingest(block)
			return false, okStatus("")
		case launch.SessSpectrum:
			if eng == nil {
				return false, errors.New("SPECTRUM before any PUSH")
			}
			return false, reply(launch.SessFloats, launch.EncodeFloats(eng.SingularValues()))
		case launch.SessModesSHA:
			if eng == nil {
				return false, errors.New("MODES-SHA before any PUSH")
			}
			rows := eng.GatherModeRows() // collective: every rank participates
			sha := ""
			if rank == 0 {
				sha = launch.HashModeRows(rows)
			}
			return false, okStatus(sha)
		case launch.SessSave:
			if eng == nil {
				return false, errors.New("SAVE before any PUSH")
			}
			rows := eng.GatherModeRows() // collective
			if rank != 0 {
				return false, okStatus("")
			}
			// The checkpoint is encoded straight into the reply frame, so
			// rank 0 never holds a second copy of the modes as bytes.
			st := core.State{
				Opts:       eng.Options(),
				ModeRows:   rows,
				Singular:   eng.SingularValues(),
				Iterations: eng.Iterations(),
				Snapshots:  eng.SnapshotsSeen(),
			}
			if err := tcptransport.WriteSizedFrame(out, launch.SessBlob, st.EncodedLen(), func(w io.Writer) error {
				return core.WriteState(w, st)
			}); err != nil {
				return false, fmt.Errorf("writing checkpoint: %w", err)
			}
			return false, out.Flush()
		case launch.SessShutdown:
			// No rank starts tearing its sockets down while a peer is
			// still mid-collective.
			comm.Barrier()
			t.Close()
			return true, okStatus("")
		default:
			return false, fmt.Errorf("unknown session verb 0x%02x", verb)
		}
	}

	in := bufio.NewReaderSize(os.Stdin, 1<<16)
	// Every PUSH is decoded into block, and every PUSH-SKETCH into sketch,
	// through scratch, so a steady stream of same-shaped pushes allocates
	// nothing.
	var block mat.Dense
	var sketch sketchDecoder
	scratch := make([]byte, 32<<10)
	for {
		var body []byte
		verb, n, err := tcptransport.ReadFrameHeader(in)
		if err == nil && verb != launch.SessPush && verb != launch.SessPushSketch {
			body, err = tcptransport.ReadFrameBody(in, n)
		}
		if err != nil {
			// The launcher is gone (EOF) or sent garbage: unwind the whole
			// world so peers blocked in collectives do not hang until the
			// idle timeout.
			t.Abort()
			if err == io.EOF {
				return errors.New("launcher closed the session stream")
			}
			return err
		}
		// A PUSH body is exactly one snapshot block and a PUSH-SKETCH body
		// one factor pair; one the reader refuses is reported like any
		// failed command.
		pushed := &block
		switch verb {
		case launch.SessPush:
			err = mat.ReadBlockExact(in, n, &block, scratch)
		case launch.SessPushSketch:
			pushed, err = sketch.read(in, n, scratch)
		}
		var done bool
		if err == nil {
			done, err = handle(verb, body, pushed)
		}
		if err != nil {
			t.Abort()
			reply(launch.SessErr, []byte(err.Error()))
			return err
		}
		if done {
			return nil
		}
	}
}

// sketchDecoder rebuilds PUSH-SKETCH blocks. The factor pair is read into
// reused Q and S storage and the product into a reused block, so a steady
// stream of same-shaped sketched pushes allocates nothing.
type sketchDecoder struct {
	q, s  mat.Dense
	block *mat.Dense
}

// read decodes the factor pair that is the next n bytes of r and returns
// this rank's row block of the batch, Q_r·S: the launcher scattered Q's
// rows, so the product is exactly the block PUSH would have carried, and
// the same collective update runs on it. The launcher refuses a pair whose
// product overflows; the non-finite check keeps a block it could not vet
// from entering the update. The block is valid until the next read.
func (d *sketchDecoder) read(r io.Reader, n int, scratch []byte) (*mat.Dense, error) {
	if err := mat.ReadFactorPair(r, n, &d.q, &d.s, scratch); err != nil {
		return nil, err
	}
	if d.block == nil || d.block.Rows() != d.q.Rows() || d.block.Cols() != d.s.Cols() {
		d.block = mat.New(d.q.Rows(), d.s.Cols())
	}
	mat.MulInto(d.block, &d.q, &d.s)
	if i := mat.FirstNonFinite(d.block.RawData()); i >= 0 {
		return nil, fmt.Errorf("PUSH-SKETCH: reconstructed block contains a non-finite value (%g)", d.block.RawData()[i])
	}
	return d.block, nil
}

// inheritedPeers adopts the mesh a launcher wired before exec: fd 3+i is
// this rank's end of a connected stream to the i-th other rank in rank
// order. Each descriptor is handed to the net poller as a duplicate and
// the original closed. On failure the process exits, which closes the
// links already adopted.
func inheritedPeers(rank, np int) ([]net.Conn, error) {
	peers := make([]net.Conn, np)
	fd := 3
	for p := range peers {
		if p == rank {
			continue
		}
		f := os.NewFile(uintptr(fd), fmt.Sprintf("mesh-%d", p))
		c, err := net.FileConn(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("adopting the inherited link to rank %d (fd %d): %w", p, fd, err)
		}
		peers[p] = c
		fd++
	}
	return peers, nil
}

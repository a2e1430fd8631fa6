package main

import (
	"bufio"
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
)

// runSession runs the worker: the process stays alive as one rank of a
// persistent world, reading framed commands from stdin and answering on
// stdout (see internal/launch/proto.go). Snapshot data arrives over the
// wire — the launcher scatters row blocks — and the rank's core engine
// incorporates it through the collective streaming pipeline.
//
// The engine options are checked first: a refused spec is reported in one
// ERR frame before any mesh is adopted or dialed. With inheritedMesh the
// peer links are descriptors the launcher wired before exec
// (inheritedPeers); otherwise the ranks meet at rank 0's rendezvous
// address.
func runSession(opts tcptransport.Options, inheritedMesh bool, copts core.Options) error {
	rank, np := opts.Rank, opts.Size
	out := bufio.NewWriter(os.Stdout)
	fw := tcptransport.NewFrameWriter(out)
	reply := func(verb byte, body []byte) error {
		if err := fw.WriteFrame(verb, body); err != nil {
			return err
		}
		return out.Flush()
	}

	if err := copts.Validate(); err != nil {
		err = fmt.Errorf("engine spec: %w", err)
		reply(launch.SessErr, []byte(err.Error()))
		return err
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
	return newSession(t, rank, copts, out).serve(bufio.NewReaderSize(os.Stdin, 1<<16))
}

// session is one rank's command loop over an established transport.
//
// Every command is answered by exactly one reply frame. Any failure —
// a malformed frame, an engine error, an abort echo from a dying peer —
// is terminal: the transport is aborted (so live peers unwind), an ERR
// frame is emitted best-effort, and serve returns the error. There is no
// partial recovery; a session world is either fully consistent or dead,
// which is exactly the contract the launcher enforces fleet-wide.
//
// Every command is decoded, executed and answered through storage the
// session keeps: the engine's own buffer, which a PUSH is decoded
// straight into, the reply header and body, the modes hasher and the
// checkpoint writer, with the engine's workspace beneath. Once the first
// of each verb has sized them, a steady stream of PUSH, MODES-SHA and SAVE
// allocates nothing. A worker's heap stays under the collector's minimum
// goal, so it never collects, and every byte it ever allocates stays
// resident: the engine's (K+B)×M_i buffer is its one large allocation,
// with no staging copy of a batch or of the gathered modes beside it.
type session struct {
	rank int
	t    *tcptransport.Transport
	comm *mpi.Comm
	out  *bufio.Writer
	fw   *tcptransport.FrameWriter

	eng       *core.Parallel
	localRows int
	// pushed is the width of the batch the last PUSH decoded.
	pushed int

	// sketch holds every PUSH-SKETCH; scratch carries every block's
	// header and a PUSH's values on their way into the engine.
	sketch  sketchDecoder
	scratch []byte
	// body is the reply body every OK is encoded into.
	body   []byte
	hasher launch.ModesHasher
	ckpt   core.StateWriter
}

// newSession serves rank's commands over t with the engine options copts,
// which the caller has validated.
func newSession(t *tcptransport.Transport, rank int, copts core.Options, out *bufio.Writer) *session {
	comm := mpi.NewComm(t, rank)
	return &session{
		rank:    rank,
		t:       t,
		comm:    comm,
		eng:     core.NewParallel(comm, copts),
		out:     out,
		fw:      tcptransport.NewFrameWriter(out),
		scratch: make([]byte, 32<<10),
	}
}

// serve answers commands read from in until SHUTDOWN or a failure.
func (s *session) serve(in *bufio.Reader) error {
	for {
		verb, n, err := tcptransport.ReadFrameHeader(in)
		if err == nil && verb != launch.SessPush && verb != launch.SessPushSketch {
			_, err = tcptransport.ReadFrameBody(in, n) // a query's body is empty: dropped
		}
		if err != nil {
			// The launcher is gone (EOF) or sent garbage: unwind the whole
			// world so peers blocked in collectives do not hang until the
			// idle timeout.
			s.t.Abort()
			if err == io.EOF {
				return errors.New("launcher closed the session stream")
			}
			return err
		}
		// A PUSH body is exactly one snapshot block and a PUSH-SKETCH body
		// one factor pair; one the reader refuses is reported like any
		// failed command.
		if verb == launch.SessPush || verb == launch.SessPushSketch {
			err = s.readBatch(verb, in, n)
		}
		var done bool
		if err == nil {
			done, err = s.handle(verb)
		}
		if err != nil {
			s.t.Abort()
			s.reply(launch.SessErr, []byte(err.Error()))
			return err
		}
		if done {
			return nil
		}
	}
}

// reply writes one reply frame and flushes it.
func (s *session) reply(verb byte, body []byte) error {
	if err := s.fw.WriteFrame(verb, body); err != nil {
		return err
	}
	return s.out.Flush()
}

// okStatus replies OK with this rank's status and, on rank 0's MODES-SHA,
// the modes hash and the spectrum.
func (s *session) okStatus(sha []byte, spectrum []float64) error {
	st := s.t.Stats()
	status := launch.SessionStatus{
		Rank:      s.rank,
		Messages:  st.Messages,
		BytesSent: st.Bytes,
		BytesRecv: st.RecvBytes[s.rank],
		Rows:      s.localRows,
	}
	if s.eng.Initialized() {
		status.Snapshots = s.eng.SnapshotsSeen()
		status.Iterations = s.eng.Iterations()
	}
	s.body = launch.AppendStatus(s.body[:0], status, sha, spectrum)
	return s.reply(launch.SessOK, s.body)
}

// readBatch decodes a PUSH or PUSH-SKETCH body, the next n bytes of in,
// into the engine's buffer, transposed: the first batch into the rows the
// seeding reads it from (FirstBatch), every later one into the rows the
// update stacks it in (BatchRows). A PUSH block goes there straight off
// the wire, with every check mat.ReadBlockExact makes; a factor pair is
// rebuilt into this rank's block Q_r·S first.
func (s *session) readBatch(verb byte, in io.Reader, n int) error {
	var block *mat.Dense
	var rows, cols int
	var err error
	if verb == launch.SessPush {
		rows, cols, err = mat.ReadBlockHeader(in, n, s.scratch)
	} else if block, err = s.sketch.read(in, n, s.scratch); err == nil {
		rows, cols = block.Dims()
	}
	if err != nil {
		return err
	}
	var dst *mat.Dense
	switch {
	case !s.eng.Initialized():
		dst = s.eng.FirstBatch(rows, cols)
	case rows != s.localRows:
		return fmt.Errorf("block has %d rows, this rank holds %d", rows, s.localRows)
	default:
		dst = s.eng.BatchRows(cols)
	}
	s.pushed = cols
	if block != nil {
		block.TInto(dst)
		return nil
	}
	return mat.ReadValuesT(in, dst, s.scratch)
}

// ingest seeds the engine with this rank's block of the first batch and
// streams every later one, from the engine rows the block was decoded
// into. An engine error (an abort echo from a failed peer included) is
// returned as it is.
func (s *session) ingest() error {
	var err error
	if s.eng.Initialized() {
		err = s.eng.IncorporateFilled(s.pushed)
	} else {
		err = s.eng.InitializeFilled()
	}
	if err != nil {
		return err
	}
	s.localRows = s.eng.ModeRows().Cols()
	return nil
}

// handle executes one command and reports whether it was a clean
// SHUTDOWN. A PUSH or PUSH-SKETCH arrives already decoded into the
// engine's buffer; every other verb carries no payload.
func (s *session) handle(verb byte) (bool, error) {
	switch verb {
	case launch.SessPush, launch.SessPushSketch:
		if err := s.ingest(); err != nil {
			return false, err
		}
		return false, s.okStatus(nil, nil)
	case launch.SessModesSHA, launch.SessSave:
		if !s.eng.Initialized() {
			return false, errors.New("MODES-SHA or SAVE before any PUSH")
		}
		blocks, err := s.eng.GatherModeRows() // collective: every rank participates
		if err != nil {
			return false, err
		}
		if s.rank != 0 {
			return false, s.okStatus(nil, nil)
		}
		if verb == launch.SessModesSHA {
			sha := s.hasher.ModeRows(blocks...)
			s.eng.ReleaseModeRows()
			return false, s.okStatus(sha, s.eng.SingularValues())
		}
		// The checkpoint is encoded straight from the gathered blocks — its
		// own rows and the received payloads — into the reply frame, so
		// rank 0 never holds the modes copied, stacked or as bytes.
		st := core.State{
			Opts:       s.eng.Options(),
			ModeBlocks: blocks,
			Singular:   s.eng.SingularValues(),
			Iterations: s.eng.Iterations(),
			Snapshots:  s.eng.SnapshotsSeen(),
		}
		err = s.fw.WriteSizedFrame(launch.SessBlob, st.EncodedLen(), func(w io.Writer) error {
			return s.ckpt.WriteState(w, st)
		})
		s.eng.ReleaseModeRows()
		if err != nil {
			return false, fmt.Errorf("writing checkpoint: %w", err)
		}
		return false, s.out.Flush()
	case launch.SessShutdown:
		// No rank starts tearing its sockets down while a peer is still
		// mid-collective.
		if err := s.comm.Barrier(); err != nil {
			return false, err
		}
		s.t.Close()
		return true, s.okStatus(nil, nil)
	default:
		return false, fmt.Errorf("unknown session verb 0x%02x", verb)
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
// the same collective update runs on it. The facade refuses a pair whose
// product overflows; the non-finite check keeps bytes from another
// process that it did not vet from entering the update. The block is
// valid until the next read.
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

// parsvd-serve hosts streaming SVD models behind an HTTP API (JSON or
// binary bodies): create named models, push snapshot batches at them from
// anywhere, and query spectra, modes, projections and reconstructions
// while ingest continues.
//
//	parsvd-serve -addr :8080 -checkpoint-dir /var/lib/parsvd
//
// Concurrent pushes to one model are micro-batched into single engine
// updates; reads are served from copy-on-publish views and never block
// ingest. With -checkpoint-dir set, every model periodically persists its
// streaming state and is restored on the next boot; SIGINT/SIGTERM
// triggers a graceful shutdown that drains the HTTP server, flushes every
// ingest queue and writes final checkpoints.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"goparsvd/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	checkpointDir := flag.String("checkpoint-dir", "", "directory for per-model checkpoints (empty disables persistence)")
	checkpointInterval := flag.Duration("checkpoint-interval", 30*time.Second, "how often dirty models are checkpointed (each checkpoint truncates the WAL)")
	fsync := flag.String("fsync", "always", "WAL durability policy: always (acked pushes survive power loss), interval, never")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond, "background WAL flush cadence under -fsync interval")
	noWAL := flag.Bool("no-wal", false, "disable the write-ahead log (checkpoint-only persistence)")
	queueDepth := flag.Int("queue", 64, "per-model ingest queue depth (full queue => HTTP 429)")
	coalesce := flag.Int("coalesce", 16, "max queued pushes folded into one engine update")
	maxBody := flag.Int64("max-body", 32<<20, "max request body bytes")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown budget for in-flight HTTP requests")
	flag.Parse()

	if err := run(*addr, server.Config{
		QueueDepth:         *queueDepth,
		MaxCoalesce:        *coalesce,
		CheckpointDir:      *checkpointDir,
		CheckpointInterval: *checkpointInterval,
		Fsync:              server.FsyncPolicy(*fsync),
		FsyncInterval:      *fsyncInterval,
		DisableWAL:         *noWAL,
		MaxBodyBytes:       *maxBody,
	}, *drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "parsvd-serve: %v\n", err)
		os.Exit(1)
	}
}

func run(addr string, cfg server.Config, drainTimeout time.Duration) error {
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	// Listen explicitly (rather than ListenAndServe) so the log reports
	// the bound address — with ":0" the kernel picks the port, and
	// harnesses like the crash-recovery gate parse it from this line.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		srv.Close()
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	log.Printf("parsvd-serve: listening on %s", ln.Addr())

	select {
	case err := <-serveErr:
		srv.Close()
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting and drain in-flight handlers
	// first, so every accepted push has reached its model queue, then
	// flush the queues and write final checkpoints.
	log.Printf("parsvd-serve: shutting down")
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("parsvd-serve: draining HTTP: %v", err)
	}
	if err := srv.Close(); err != nil {
		return err
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("parsvd-serve: bye")
	return nil
}

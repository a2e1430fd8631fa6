package server

import (
	"context"
	"errors"
	"net/http"

	parsvd "goparsvd"
)

// Sentinel errors of the serving layer. Handlers map them onto HTTP
// status codes through httpStatus; the client package maps the codes
// back.
var (
	// ErrModelNotFound reports a model name absent from the registry.
	ErrModelNotFound = errors.New("server: model not found")
	// ErrModelExists reports a create for a name already registered.
	ErrModelExists = errors.New("server: model already exists")
	// ErrBacklogFull is the backpressure signal: the model's bounded
	// ingest queue is full and the push was not enqueued. Clients should
	// retry after a backoff (HTTP 429).
	ErrBacklogFull = errors.New("server: ingest queue is full, retry later")
	// ErrModelClosed reports a push to a model that is shutting down.
	ErrModelClosed = errors.New("server: model is closed")
	// ErrServerClosed reports a model create after (or racing) Close.
	ErrServerClosed = errors.New("server: server is closed")
	// ErrNoData reports a read from a model that has not ingested any
	// snapshot batch yet, so no view has been published.
	ErrNoData = errors.New("server: model has no data yet")
	// ErrNoModes reports a modes/project/reconstruct request against a
	// model that serves no mode matrix: a distributed model's modes live
	// row-distributed in its worker processes (the view carries their
	// SHA-256 fingerprint instead), and only a checkpoint gathers them.
	ErrNoModes = errors.New("server: model serves no mode matrix (distributed backend); read the spectrum, stats or a checkpoint instead")
	// ErrNotDurable reports a push that was applied in memory but whose
	// write-ahead log append failed: the 200 durability contract cannot
	// be met, so the pusher gets a 500 instead of an ack. The log refuses
	// non-contiguous records afterwards, so every later push fails the
	// same way until the operator repairs the disk — the model never
	// silently diverges from its durable history.
	ErrNotDurable = errors.New("server: push applied in memory but not durable (write-ahead log append failed)")
	// ErrBodyTooLarge reports a request body beyond Config.MaxBodyBytes
	// (HTTP 413).
	ErrBodyTooLarge = errors.New("server: request body exceeds the size limit")
)

// StatusClientClosedRequest is the non-standard 499 status (nginx
// convention) reported when the client goes away while its push is
// waiting in the ingest queue.
const StatusClientClosedRequest = 499

// httpStatus maps an error onto the HTTP status code the API reports.
// Context errors are checked first so a canceled handler never surfaces a
// backend abort string: the client sees a clean 499/504.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrModelNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrModelExists):
		return http.StatusConflict
	case errors.Is(err, ErrBacklogFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrBodyTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrModelClosed), errors.Is(err, ErrServerClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNoData), errors.Is(err, ErrNoModes):
		return http.StatusConflict
	case errors.Is(err, ErrNotDurable):
		// The push was applied but could not be logged: a server-side
		// storage fault, not a caller mistake.
		return http.StatusInternalServerError
	case errors.Is(err, parsvd.ErrEngineFailed), errors.Is(err, parsvd.ErrStartFailed):
		// A permanently failed engine (an engine error, an aborted
		// collective) and a Distributed fleet that never came up are
		// server-side faults, not caller mistakes.
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// errorMessage rewrites internal error text that should not leak to HTTP
// clients verbatim. Cancellation in particular must read as a clean
// client-side condition, not as a backend abort trace.
func errorMessage(err error) string {
	switch {
	case errors.Is(err, context.Canceled):
		return "client closed the request before the push was applied; it may still be applied by the ingest loop"
	case errors.Is(err, context.DeadlineExceeded):
		return "request deadline exceeded before the push was applied; it may still be applied by the ingest loop"
	}
	return err.Error()
}

package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"

	parsvd "goparsvd"
)

// TestHTTPStatus: every error maps to its status by its type alone. A
// failed engine and a Distributed fleet that never came up are the
// server's fault (500), however their text reads; an error whose text
// merely mentions an abort or a panic is still the caller's (400).
func TestHTTPStatus(t *testing.T) {
	for _, c := range []struct {
		name string
		err  error
		want int
	}{
		{"canceled", fmt.Errorf("push: %w", context.Canceled), StatusClientClosedRequest},
		{"deadline", fmt.Errorf("push: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{"not found", ErrModelNotFound, http.StatusNotFound},
		{"exists", ErrModelExists, http.StatusConflict},
		{"backlog", ErrBacklogFull, http.StatusTooManyRequests},
		{"too large", ErrBodyTooLarge, http.StatusRequestEntityTooLarge},
		{"closed", ErrModelClosed, http.StatusServiceUnavailable},
		{"no data", ErrNoData, http.StatusConflict},
		{"not durable", ErrNotDurable, http.StatusInternalServerError},
		{"engine failed", fmt.Errorf("%w: distributed update: launch: rank 0 failed during PUSH: mpi: world aborted", parsvd.ErrEngineFailed), http.StatusInternalServerError},
		{"failed start", fmt.Errorf("%w: launch: rank 1 during PUSH: worker exited: exit status 2", parsvd.ErrStartFailed), http.StatusInternalServerError},
		{"text mentions abort", errors.New("parsvd: batch column 3 reads abort"), http.StatusBadRequest},
		{"text mentions panic", errors.New("server: panic is not a model name"), http.StatusBadRequest},
		{"plain", errors.New("parsvd: batch has 3 rows, want 4"), http.StatusBadRequest},
	} {
		if got := httpStatus(c.err); got != c.want {
			t.Errorf("%s: httpStatus(%q) = %d, want %d", c.name, c.err, got, c.want)
		}
	}
}

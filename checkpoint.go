package parsvd

import (
	"errors"
	"fmt"
	"io"

	"goparsvd/internal/core"
)

// ErrBadCheckpoint is returned by Load for data that is not a goparsvd
// checkpoint or is structurally damaged.
var ErrBadCheckpoint = core.ErrBadCheckpoint

// Load reconstructs a decomposition from a checkpoint written by Save (or
// by the engine-level writer): a serial-backend SVD holding the global
// modes, singular values and counters, ready to continue streaming with
// Push or Fit. Checkpoints of parallel and distributed runs were gathered
// to global state at Save time (for distributed runs, rank 0 of the
// worker fleet assembled them), so they load the same way.
func Load(r io.Reader) (*SVD, error) {
	if r == nil {
		return nil, errors.New("parsvd: Load with nil reader")
	}
	st, err := core.ReadState(r)
	if err != nil {
		return nil, fmt.Errorf("parsvd: %w", err)
	}
	s, err := restore(st)
	if err != nil {
		return nil, fmt.Errorf("parsvd: %w: %v", ErrBadCheckpoint, err)
	}
	return s, nil
}

// restore builds a serial-backend SVD holding st, running with st's
// options. The ingest counters are rehydrated so Stats keeps reporting
// across a checkpoint/restore boundary, and a shard-stamped state resumes
// as the same shard: its saves keep the mark and merges keep refusing its
// siblings' duplicates.
func restore(st core.State) (*SVD, error) {
	eng, err := restoreSerialEngine(st)
	if err != nil {
		return nil, err
	}
	cfg := defaultConfig()
	cfg.opts = eng.svd.Options()
	cfg.shard = st.Shard
	return &SVD{
		cfg:       cfg,
		eng:       eng,
		rows:      eng.svd.ModeRows().Cols(), // the modes are K×M, mode-major
		snapshots: st.Snapshots,
		updates:   int64(st.Iterations) + 1, // Initialize counted as an update
	}, nil
}

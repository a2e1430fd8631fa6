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
	eng, err := core.RestoreSerial(st.Opts, st.Modes, st.Singular,
		st.Iterations, st.Snapshots)
	if err != nil {
		return nil, fmt.Errorf("parsvd: %w: %v", ErrBadCheckpoint, err)
	}
	opts := eng.Options()
	cfg := defaultConfig()
	cfg.k = opts.K
	cfg.ff = opts.ForgetFactor
	cfg.lowRank = opts.LowRank
	cfg.rlaOpts = opts.RLA
	cfg.r1 = opts.R1
	cfg.method = opts.Method
	// A shard-stamped checkpoint resumes as the same shard: its saves
	// keep the mark and merges keep refusing its siblings' duplicates.
	cfg.shard = st.Shard
	s := &SVD{cfg: cfg, eng: restoredSerialEngine(eng)}
	// Rehydrate the ingest counters so Stats keeps reporting across a
	// checkpoint/restore boundary.
	s.rows = eng.ModeRows().Cols()
	s.snapshots = eng.SnapshotsSeen()
	s.updates = int64(eng.Iterations()) + 1 // Initialize counted as an update
	return s, nil
}

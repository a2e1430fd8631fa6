package server

import (
	"fmt"

	parsvd "goparsvd"
)

// ModelSpec is the JSON shape of a model: a name plus the subset of the
// parsvd functional options that make sense for a served, push-driven
// decomposition. Zero-valued fields keep the parsvd defaults (K = 10,
// forget factor 1.0, serial backend), exactly as omitting the
// corresponding option in Go would.
type ModelSpec struct {
	// Name identifies the model in every URL and checkpoint file name:
	// 1-64 characters of [A-Za-z0-9._-], starting alphanumeric.
	Name string `json:"name"`
	// Modes is K, the truncation rank (parsvd.WithModes).
	Modes int `json:"modes,omitempty"`
	// ForgetFactor is ff in (0, 1] (parsvd.WithForgetFactor).
	ForgetFactor float64 `json:"forget_factor,omitempty"`
	// Backend is "serial" (default), "parallel" (the TSQR over row
	// blocks, in this process) or "distributed" (a persistent fleet of one worker OS
	// process per rank; pushes are row-scattered to it over the wire).
	// Distributed models serve spectrum, stats and checkpoints like the
	// others, but no mode matrix — the modes live row-distributed in the
	// worker processes and are only gathered for checkpoints.
	Backend string `json:"backend,omitempty"`
	// Ranks is the world size of the parallel and distributed backends
	// (parsvd.WithRanks).
	Ranks int `json:"ranks,omitempty"`
	// LowRank, when present, turns on the randomized pipeline
	// (parsvd.WithLowRank).
	LowRank *LowRankSpec `json:"low_rank,omitempty"`
	// Shard, when present, marks the model as one shard-local fit of a
	// partitioned stream (parsvd.WithShard): shard Index of Count
	// disjoint snapshot subsets. The mark is stamped into every
	// checkpoint the model writes or exports, and merge validation uses
	// it to refuse absorbing the same shard twice. The cross-node
	// coordinator (goparsvd/coord) creates its per-shard models with it.
	Shard *ShardSpec `json:"shard,omitempty"`
}

// ShardSpec is the JSON shape of a shard provenance mark.
type ShardSpec struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// LowRankSpec tunes the randomized SVD sketch (parsvd.RLA).
type LowRankSpec struct {
	Oversample int   `json:"oversample,omitempty"`
	PowerIters int   `json:"power_iters,omitempty"`
	Seed       int64 `json:"seed,omitempty"`
}

// validName reports whether a model name is acceptable as a URL path
// segment and a checkpoint file stem: 1 to 64 ASCII letters, digits, '.',
// '_' or '-', the first a letter or digit.
func validName(name string) bool {
	if len(name) < 1 || len(name) > 64 || !isAlnum(name[0]) {
		return false
	}
	for i := 1; i < len(name); i++ {
		if c := name[i]; !isAlnum(c) && c != '.' && c != '_' && c != '-' {
			return false
		}
	}
	return true
}

// isAlnum reports whether c is an ASCII letter or digit.
func isAlnum(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

// options maps the spec onto parsvd functional options. Misconfiguration
// is reported here or by parsvd.New — either way as an error the handler
// turns into a 400, never a panic.
func (sp *ModelSpec) options() ([]parsvd.Option, error) {
	if !validName(sp.Name) {
		return nil, fmt.Errorf("server: invalid model name %q: want 1-64 chars of [A-Za-z0-9._-], starting alphanumeric", sp.Name)
	}
	var opts []parsvd.Option
	if sp.Modes != 0 {
		opts = append(opts, parsvd.WithModes(sp.Modes))
	}
	if sp.ForgetFactor != 0 {
		opts = append(opts, parsvd.WithForgetFactor(sp.ForgetFactor))
	}
	switch sp.Backend {
	case "", parsvd.Serial.String():
		// The parsvd default.
	case parsvd.Parallel.String():
		opts = append(opts, parsvd.WithBackend(parsvd.Parallel))
	case parsvd.Distributed.String():
		opts = append(opts, parsvd.WithBackend(parsvd.Distributed))
	default:
		return nil, fmt.Errorf("server: unknown backend %q (want %q, %q or %q)",
			sp.Backend, parsvd.Serial, parsvd.Parallel, parsvd.Distributed)
	}
	if sp.Ranks != 0 {
		opts = append(opts, parsvd.WithRanks(sp.Ranks))
	}
	if sp.LowRank != nil {
		opts = append(opts, parsvd.WithLowRank(parsvd.RLA{
			Oversample: sp.LowRank.Oversample,
			PowerIters: sp.LowRank.PowerIters,
			Seed:       sp.LowRank.Seed,
		}))
	}
	if sp.Shard != nil {
		opts = append(opts, parsvd.WithShard(sp.Shard.Index, sp.Shard.Count))
	}
	return opts, nil
}

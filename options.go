package parsvd

import (
	"fmt"
	"io"
	"time"

	"goparsvd/internal/core"
	"goparsvd/internal/rla"
)

// Backend selects the execution mode of a decomposition.
type Backend int

const (
	// Serial is ParSVD_Serial: a single-process streaming truncated SVD.
	Serial Backend = iota
	// Parallel is ParSVD_Parallel in one process: the Serial engine whose
	// QR is the paper's TSQR (Listing 4) over the row blocks of the
	// snapshot matrix that WithRanks ranks would hold, each factored in
	// turn. Its modes match a Distributed fleet of as many ranks bit for
	// bit.
	Parallel
	// Distributed runs the same parallel algorithm with one OS process
	// per rank over local sockets (cmd/parsvd-worker), supervised by this
	// process as a persistent, sessionful worker fleet: every Push (or
	// Fit batch) is row-scattered to the workers over the wire, and
	// spectrum, modes fingerprint and checkpoints come back the same way.
	Distributed
)

// String names the backend.
func (b Backend) String() string {
	switch b {
	case Serial:
		return "serial"
	case Parallel:
		return "parallel"
	case Distributed:
		return "distributed"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// RLA tunes the randomized SVD enabled by WithLowRank: Oversample is the
// sketch surplus p beyond the target rank, PowerIters the subspace
// iteration count q, and Seed fixes the Gaussian sketch for reproducible
// runs (paper §3.3; Halko, Martinsson & Tropp).
type RLA = rla.Options

// SketchConfig tunes WithSketchedPush, the single-pass randomized sketch
// applied to every batch before it leaves the caller (Li–Kluger–Tygert,
// arXiv 1612.08709: the sketch, not the data, should cross the wire).
type SketchConfig struct {
	// Tol > 0 selects the adaptive rank: the range-finder basis grows
	// until the estimated residual of the compressed batch falls below
	// Tol·‖batch‖_F (scale-invariant; the estimate upper-bounds the true
	// spectral residual w.h.p.). Tol == 0 uses a fixed sketch width of
	// MaxRank columns.
	Tol float64
	// Block is the adaptive basis growth width per round; 0 means 8.
	// Ignored when Tol == 0.
	Block int
	// MaxRank caps the sketch width (the wire cost per push is
	// 8·width·(M+B) bytes against 8·M·B raw). 0 means 2·K under
	// WithSketchedPush, and "no cap" for an adaptive standalone Sketch.
	MaxRank int
}

// validate rejects configurations no sketch path can honor. The facade
// defaults MaxRank before calling it, so the Tol==0 && MaxRank==0 arm
// only fires for a standalone Sketch call.
func (sc SketchConfig) validate() error {
	if !(sc.Tol >= 0) { // the negated form also rejects NaN
		return fmt.Errorf("parsvd: SketchConfig.Tol = %g: must be >= 0 (0 means fixed rank)", sc.Tol)
	}
	if sc.Block < 0 {
		return fmt.Errorf("parsvd: SketchConfig.Block = %d: must be >= 0 (0 means the default)", sc.Block)
	}
	if sc.MaxRank < 0 {
		return fmt.Errorf("parsvd: SketchConfig.MaxRank = %d: must be >= 0", sc.MaxRank)
	}
	if sc.Tol == 0 && sc.MaxRank == 0 {
		return fmt.Errorf("parsvd: SketchConfig needs Tol > 0 (adaptive rank) or MaxRank >= 1 (fixed rank)")
	}
	return nil
}

// TransportConfig tunes the Distributed backend's process fabric.
type TransportConfig struct {
	// WorkerBin is the parsvd-worker binary; empty resolves via the
	// PARSVD_WORKER environment variable, a sibling of the running
	// executable, PATH, and finally `go build` inside a module checkout.
	WorkerBin string
	// Timeout bounds each session operation round trip — fleet startup
	// (spawn and engine initialization), one batch scatter, one gather,
	// the shutdown drain. Zero means 2 minutes. It is what reaps
	// a wedged fleet: an operation that exceeds it kills the workers and
	// permanently fails the SVD with ErrEngineFailed.
	Timeout time.Duration
	// IdleTimeout is the workers' failure-detection window. Zero keeps
	// the worker default.
	IdleTimeout time.Duration
	// Stderr receives the worker processes' stderr streams; nil means
	// this process's stderr.
	Stderr io.Writer
}

// Option configures New. Options are applied in order; the last setting
// of a knob wins.
type Option func(*config) error

type config struct {
	k        int
	ff       float64
	lowRank  bool
	rlaOpts  rla.Options
	backend  Backend
	ranks    int
	ranksSet bool

	transport    TransportConfig
	transportSet bool
	checkpoint   io.Writer

	// shards > 1 makes Fit map-reduce the source across independent
	// shard fits merged into one model; shard stamps this SVD's
	// checkpoints as one shard-local fit of a partitioned stream.
	shards int
	shard  core.ShardID

	// sketchOn compresses every pushed batch through the randomized range
	// finder before it reaches the engine (WithSketchedPush).
	sketchOn bool
	sketch   SketchConfig
}

func defaultConfig() config {
	return config{k: 10, ff: 1.0, backend: Serial, ranks: 1}
}

// WithModes sets K, the number of retained modes (truncated left singular
// vectors). The default is 10.
func WithModes(k int) Option {
	return func(c *config) error {
		if k < 1 {
			return fmt.Errorf("parsvd: WithModes(%d): K must be >= 1", k)
		}
		c.k = k
		return nil
	}
}

// WithForgetFactor sets Algorithm 1's ff ∈ (0, 1]: the weight applied to
// the running factorization before each update. The default 1.0
// reproduces the one-shot SVD; the paper's experiments use 0.95.
func WithForgetFactor(ff float64) Option {
	return func(c *config) error {
		if !(ff > 0 && ff <= 1) { // the negated form also rejects NaN
			return fmt.Errorf("parsvd: WithForgetFactor(%g): forget factor must be in (0, 1]", ff)
		}
		c.ff = ff
		return nil
	}
}

// WithLowRank replaces every dense SVD in the pipeline with the
// randomized variant (paper §3.3). An optional RLA argument tunes the
// sketch; omitting it uses oversampling 10, one power iteration and a
// fixed seed. Passing more than one RLA is an error.
func WithLowRank(opts ...RLA) Option {
	return func(c *config) error {
		if len(opts) > 1 {
			return fmt.Errorf("parsvd: WithLowRank takes at most one RLA, got %d", len(opts))
		}
		c.lowRank = true
		if len(opts) == 1 {
			if err := opts[0].Validate(); err != nil {
				return fmt.Errorf("parsvd: WithLowRank: %w", err)
			}
			c.rlaOpts = opts[0]
		}
		return nil
	}
}

// WithSketchedPush compresses every pushed batch into its randomized
// sketch before it leaves the caller: an M×B batch A becomes the factor
// pair Q·(QᵀA) — Q an M×L orthonormal range basis, L ≤ MaxRank — and only
// the pair crosses into the engine (for the Distributed backend, across
// the wire to the worker fleet, which reconstructs on its side). Spectra
// stay within the documented tolerance of the unsketched run: exact (to
// roundoff) when MaxRank covers the batch rank, and within ~Tol·‖batch‖_F
// per batch when the adaptive rank is active. An optional SketchConfig
// tunes it; omitting it sketches at a fixed width of 2·K. Batches the
// sketch cannot compress (L·(M+B) ≥ M·B) are pushed raw. Passing more
// than one SketchConfig is an error. The RLA knobs of WithLowRank tune
// this sketch too when both are set.
func WithSketchedPush(cfg ...SketchConfig) Option {
	return func(c *config) error {
		if len(cfg) > 1 {
			return fmt.Errorf("parsvd: WithSketchedPush takes at most one SketchConfig, got %d", len(cfg))
		}
		c.sketchOn = true
		if len(cfg) == 1 {
			c.sketch = cfg[0]
		}
		return nil
	}
}

// WithBackend selects the execution mode. The default is Serial.
func WithBackend(b Backend) Option {
	return func(c *config) error {
		if b != Serial && b != Parallel && b != Distributed {
			return fmt.Errorf("parsvd: WithBackend(%d): unknown backend", int(b))
		}
		c.backend = b
		return nil
	}
}

// WithRanks sets the world size for the Parallel and Distributed
// backends (default 4, the paper's configuration). The Serial backend
// only accepts 1.
func WithRanks(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("parsvd: WithRanks(%d): need at least one rank", n)
		}
		c.ranks = n
		c.ranksSet = true
		return nil
	}
}

// WithTransport tunes the Distributed backend's worker fleet. Setting it
// on any other backend is an error.
func WithTransport(t TransportConfig) Option {
	return func(c *config) error {
		if t.Timeout < 0 || t.IdleTimeout < 0 {
			return fmt.Errorf("parsvd: WithTransport: negative timeout")
		}
		c.transport = t
		c.transportSet = true
		return nil
	}
}

// WithShards splits the fit into n independent shard-local
// decompositions merged into one model: Fit deals the source's batches
// round-robin across n engines of the configured backend (each shard
// runs Serial, Parallel or Distributed exactly as a whole fit would) and
// reduces the shard results up a balanced pairwise merge tree (Iwen &
// Ong, arXiv 1601.07010). The result is an ordinary serial-resumable
// model; MergeBound reports the accumulated truncation error of the
// reduction. WithShards(1) is the ordinary unsharded fit.
func WithShards(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("parsvd: WithShards(%d): need at least one shard", n)
		}
		c.shards = n
		return nil
	}
}

// WithShard marks this decomposition as shard index of count disjoint
// snapshot subsets of one logical stream. The mark is carried into every
// checkpoint this SVD writes, and merge validation uses it to refuse
// absorbing the same shard twice. It does not change the computation.
func WithShard(index, count int) Option {
	return func(c *config) error {
		id := core.ShardID{Index: index, Count: count}
		if id.IsZero() {
			return fmt.Errorf("parsvd: WithShard(0, 0): use index in [0, count)")
		}
		if err := id.Validate(); err != nil {
			return fmt.Errorf("parsvd: WithShard(%d, %d): index must be in [0, count)", index, count)
		}
		c.shard = id
		return nil
	}
}

// WithCheckpoint arranges for Fit to serialize the final streaming state
// to w (the same format as Save) after its source drains. On the
// Distributed backend the checkpoint is gathered from the worker fleet
// (rank 0 assembles the global state), like Save.
func WithCheckpoint(w io.Writer) Option {
	return func(c *config) error {
		if w == nil {
			return fmt.Errorf("parsvd: WithCheckpoint(nil)")
		}
		c.checkpoint = w
		return nil
	}
}

// validate cross-checks the assembled configuration once all options have
// been applied.
func (c *config) validate() error {
	switch c.backend {
	case Serial:
		if c.ranksSet && c.ranks != 1 {
			return fmt.Errorf("parsvd: the serial backend runs on exactly one rank, got WithRanks(%d); use WithBackend(Parallel)", c.ranks)
		}
		c.ranks = 1
	case Parallel, Distributed:
		if !c.ranksSet {
			c.ranks = 4
		}
	}
	if c.transportSet && c.backend != Distributed {
		return fmt.Errorf("parsvd: WithTransport only applies to the Distributed backend, not %v", c.backend)
	}
	if c.shards > 1 && !c.shard.IsZero() {
		return fmt.Errorf("parsvd: WithShards and WithShard are mutually exclusive: a sharded fit merges to a whole-stream model, a shard mark brands one shard-local fit")
	}
	if c.sketchOn {
		if c.sketch.MaxRank == 0 && c.sketch.Tol == 0 {
			// The documented default: a fixed sketch twice as wide as the
			// truncation rank, so the sketch error stays well below what
			// the K-truncation discards anyway.
			c.sketch.MaxRank = 2 * c.k
		}
		if err := c.sketch.validate(); err != nil {
			return err
		}
	}
	// The engine layers re-validate, but through the error-returning
	// path: nothing a misconfigured New can reach panics.
	if err := c.coreOptions().Validate(); err != nil {
		return fmt.Errorf("parsvd: %w", err)
	}
	return nil
}

// coreOptions maps the public configuration onto the engine option
// struct.
func (c *config) coreOptions() core.Options {
	return core.Options{
		K:            c.k,
		ForgetFactor: c.ff,
		LowRank:      c.lowRank,
		RLA:          c.rlaOpts,
	}
}

# Development entry points. `make check` is the tier-1 gate every PR must
# keep green; CI (.github/workflows/ci.yml) runs the same targets.

GO ?= go
# benchstat wants repeated samples; `make bench BENCH_COUNT=10` feeds it.
BENCH_COUNT ?= 1

.PHONY: check build cross test vet fmt race smoke dist-smoke serve-smoke crash-smoke merge-smoke coord-smoke sketch-smoke examples examples-gate bench bench-stream bench-trajectory bench-baseline benchtune noasm-test worker fuzz-smoke

check: build cross test vet fmt

# bench/ is its own module (it replaces goparsvd with this tree), so
# ./... skips it; building and vetting it here makes a change that breaks
# what the benchmark compiles against fail the gate.
build:
	$(GO) build ./...
	cd bench && $(GO) build ./... && $(GO) vet ./...

# internal/launch wires worker meshes only on unix and sizes pipes only on
# Linux; the other side of each build-tag split is a stub that must keep
# compiling. (go build skips _test files.)
cross:
	GOOS=windows $(GO) build ./...
	GOOS=darwin $(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# gofmt -l lists offending files; fail if any are reported.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Race-detector pass over the non-bench tests (benchmarks don't run under
# `go test` by default).
race:
	$(GO) test -race ./...

# Multi-process smoke: a persistent 4-rank parsvd-worker fleet over its
# launcher-wired socket mesh, fed the deterministic workload batch by batch over the
# wire, must match the serial reference within 1e-12. CI=1 keeps it
# running under -short. Fast enough for every CI run.
smoke:
	CI=1 $(GO) test -short -count 1 -run 'TestDistributedWireSmoke' -v .

worker:
	$(GO) build -o bin/parsvd-worker ./cmd/parsvd-worker

# Persistent-fleet smoke: a 4-rank worker fleet held open across the
# whole deterministic workload, fed real snapshot batches over the wire
# (stdin frames -> row scatter -> mesh collectives), must match the serial
# reference within 1e-12. The launcher side runs under the race detector;
# the cross-backend conformance + fault-injection suites ride along, with
# the start-up contract: the engine spec is on each worker's command line,
# a bad one is refused in one ERR frame, the seeding PUSH is a fleet's
# first exchange, and a fleet that never came up fails that push without
# poisoning the engine. OpTimeout bounds a command write to a rank that
# stopped reading its stdin as well as the reply
# (TestSessionCommandWriteDeadline, one of the TestSession tests). The
# Parallel backend is the blocked TSQR in one process: its spectrum and
# modes hash must equal a fleet's at 2, 3 and 4 ranks, with rank blocks
# shorter than the batch and with the randomized small SVD
# (TestDistributedMatchesParallel; TestBlockedMatchesDistributed pins the
# same against in-process ranks after every batch), and a stack wider than
# the snapshot matrix is tall (M < K+B) must fit on both as on Serial
# (TestWideStackMatchesSerial).
# The seed is the update's own TSQR step: a rank-deficient and a strongly
# graded first batch must seed orthonormal modes on 1-4 in-process ranks
# and on two real workers (Test*SeedKeepsModesOrthonormal), and the seed
# and every update cost three messages on two ranks
# (TestParallelMessagesPerUpdate).
# The last step, without the race detector (whose
# instrumentation allocates), pins the allocation-free distributed steady
# state: a two-rank update over loopback sockets, and a worker's PUSH,
# MODES-SHA and SAVE, each 0 allocs/op, as is a Parallel backend update
# with a GC before each (TestIncorporateNoAllocsAcrossGC); a worker's lifetime bytes over a
# 200-push session, bounded by its engine buffer plus fixed I/O; the
# seeding placement on every engine: the first batch decoded into the
# engine buffer's first rows, with the seeding rotation writing the modes
# over them (TestFirstBatchSeedsInPlace); and rank 0's gather reading
# the other ranks' mode rows in the payloads they arrived in
# (TestGatherModeRowsInPlace).
dist-smoke:
	CI=1 $(GO) test -race -count 1 -v \
		-run 'TestDistributedWireSmoke|TestConformance|TestDistributedResultIsOneRoundTrip|TestDistributedWorkerDeath|TestDistributedCloseReaps|TestDistributedFailedStartDoesNotPoison|TestDistributedSeedKeepsModesOrthonormal|TestDistributedMatchesParallel|TestWideStackMatchesSerial' .
	CI=1 $(GO) test -race -count 1 -run 'TestSession|TestFirstPushIsFirstExchange|TestWorkerRefusesBadSpec' ./internal/launch
	CI=1 $(GO) test -race -count 1 -run 'TestParallelSeedKeepsModesOrthonormal|TestParallelMessagesPerUpdate' ./internal/core
	CI=1 $(GO) test -race -count 1 -run 'TestBlockedMatchesDistributed' ./internal/stream
	CI=1 $(GO) test -count 1 -v -run 'TestParallelIncorporateSteadyAllocs|TestFirstBatchSeedsInPlace|TestGatherModeRowsInPlace|TestSessionSteadyStateAllocs|TestSessionLifetimeBytes|TestIncorporateNoAllocsAcrossGC' \
		./internal/core ./cmd/parsvd-worker ./internal/stream

# One pass over the committed fuzz seed corpora plus a short live fuzz of
# every decoder that parses another process's bytes or a crashed
# process's files: the mesh frame reader with its hello, table, ident and
# data-body decoders (including the rendezvous handshake), the PUSH block
# reader and the worker's transposing in-place PUSH decoder
# (mat.ReadValuesT) checked against it (FuzzDecodeBlockInPlace), the
# PUSH-SKETCH factor-pair decoder, the
# launcher's SAVE checkpoint reader (FuzzReadBlobState), the HTTP binary
# matrix body decoder, the HTTP JSON body decoder (create specs, matrices,
# sketch pairs and merge requests, FuzzDecodeJSONBody), checkpoint loading,
# the WAL reader behind Open/Replay and the server's WAL record decoder
# (FuzzDecodeRecord) (truncated frames, hostile lengths and shapes,
# non-finite payloads must error, never panic or over-allocate); the
# model-name check's seeds ride along with the server's. The record
# decoder's seeds are whole WAL records of 1–2 KB, which the fuzzer's
# default 60 s minimization of each new input would spend the whole
# 10 s on, so its live run minimizes for at most 1 s.
fuzz-smoke:
	$(GO) test -run 'FuzzReadFrame|TestRendezvousRefusesHostileFrameLength' ./internal/mpi/tcptransport
	$(GO) test -run 'Fuzz|TestDecodeBlock|TestReadSessionFrame|TestReadBlobState' ./internal/launch
	$(GO) test -run 'FuzzReadMatrix|FuzzDecodeJSONBody|FuzzDecodeRecord|FuzzValidName|TestValidName|TestRetiredInitRankStillLoads' ./server
	$(GO) test -run 'FuzzLoad|TestLoadRejectsHostileShapes' .
	$(GO) test -run 'FuzzWALOpen|TestTornTail' ./internal/wal
	$(GO) test -fuzz FuzzReadFrame -fuzztime 10s -run '^$$' ./internal/mpi/tcptransport
	$(GO) test -fuzz 'FuzzDecodeBlock$$' -fuzztime 10s -run '^$$' ./internal/launch
	$(GO) test -fuzz FuzzDecodeBlockInPlace -fuzztime 10s -run '^$$' ./internal/launch
	$(GO) test -fuzz FuzzDecodeFactorPair -fuzztime 10s -run '^$$' ./internal/launch
	$(GO) test -fuzz FuzzReadBlobState -fuzztime 10s -run '^$$' ./internal/launch
	$(GO) test -fuzz FuzzReadMatrix -fuzztime 10s -run '^$$' ./server
	$(GO) test -fuzz FuzzDecodeJSONBody -fuzztime 10s -run '^$$' ./server
	$(GO) test -fuzz FuzzDecodeRecord -fuzztime 10s -fuzzminimizetime 1s -run '^$$' ./server
	$(GO) test -fuzz FuzzLoad -fuzztime 10s -run '^$$' .
	$(GO) test -fuzz FuzzWALOpen -fuzztime 10s -run '^$$' ./internal/wal

# Serving smoke: boot the HTTP server on a random port, create a model,
# stream the deterministic FromWorkload batches at it through the typed
# client, and require the served spectrum to match an in-process run
# within 1e-12 — then a race-detector pass over the serving subsystem
# (concurrent pushers + readers on one model).
serve-smoke:
	$(GO) test -run 'TestServeSmoke' -v -count 1 ./server
	$(GO) test -race -count 1 ./server/...

# Crash-recovery gate: a real parsvd-serve process is SIGKILLed mid-stream
# and rebooted on the same checkpoint dir; the WAL replay must reconstruct
# exactly the acked pushes (spectrum within 1e-12 of an uninterrupted run,
# zero acked pushes lost) across serial, parallel and distributed models.
# The WAL unit suite (torn tails, bit flips, rotation) rides along.
crash-smoke:
	$(GO) test -run 'TestCrashRecoverySIGKILL' -v -count 1 ./server
	$(GO) test -count 1 ./internal/wal

# Merge conformance gate: a fit sharded across 2/4/8 independent engines
# and reduced through the pairwise merge tree must match the monolithic
# serial fit within 1e-10 on every Source kind, and the tree shape
# (balanced MergeCheckpoints vs a left-deep chain of SVD.Merge) must
# change results only within the accumulated error bound. The merge is
# the streaming engine's update at forget factor 1 (stream.SVD.Absorb), so
# the engine's reference replay, with absorb steps interleaved, runs here
# too, beside the internal/merge unit + property suite and the
# server-side merge tests (corrupt uploads, WAL merge-record replay,
# SIGKILL around /merge).
merge-smoke:
	$(GO) test -run 'TestMergeConformance' -v -count 1 .
	$(GO) test -count 1 ./internal/merge
	$(GO) test -count 1 -run 'ModeMajor|Absorb' ./internal/stream
	$(GO) test -run 'TestMerge|TestCrashRecoveryMergeSIGKILL' -count 1 ./server

# Cross-node coordinator gate: three REAL parsvd-serve processes on
# kernel-picked ports, a 6-shard coordinated fit over the deterministic
# workload driven by the parsvd-coord binary end to end (merged
# checkpoint ≤ 1e-10 of a monolithic serial fit), and the same fit with
# one serve process SIGKILLed mid-stream so the failover/refit path runs
# against a genuinely dead node. The coordinator unit + fault suite and
# the server checkpoint-export/provenance tests ride along.
coord-smoke:
	$(GO) test -run 'TestCoordSmoke' -v -count 1 ./coord
	$(GO) test -count 1 ./coord
	$(GO) test -run 'TestCheckpoint|TestShardProvenanceSurfaced|TestShardSpecSurvivesReboot' -count 1 ./server

# Sketched-push gate: the sketch property suite (sketched vs unsketched
# fits across every Source kind and all three backends, exactness when
# MaxRank covers the data rank, never-panic option handling) including
# TestSketchSmoke — a 4-rank worker fleet fed compressed (Q, S)
# factor pairs must match the serial unsketched reference within 1e-4
# with >= 4x wire reduction — plus the server-side sketched ingest, WAL
# replay and computed-Retry-After tests.
sketch-smoke:
	CI=1 $(GO) test -count 1 -v -run 'TestSketch' .
	$(GO) test -count 1 -run 'TestPushSketchEndToEnd|TestSketchWALReplay|TestRetryAfterDerivedFromQueueOccupancy|TestRetryAfterValueReachesBackoff' ./server/...

# Public-API consumer gate: every example must build against the public
# packages only, quickstart must run end-to-end, and neither examples/
# nor README code blocks may import goparsvd/internal.
examples: examples-gate
	$(GO) build ./examples/...
	$(GO) run ./examples/quickstart

examples-gate:
	@bad=$$(grep -rn '"goparsvd/internal' examples/ README.md || true); \
	if [ -n "$$bad" ]; then \
		echo "examples-gate: public consumers must not import goparsvd/internal:"; \
		echo "$$bad"; exit 1; \
	fi; \
	echo "examples-gate OK: no internal imports in examples/ or README.md"

# benchstat-compatible output: standard `go test -bench` lines; pipe two
# runs into `benchstat old.txt new.txt`.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count $(BENCH_COUNT) ./internal/mat ./internal/linalg ./internal/stream ./internal/merge

bench-stream:
	$(GO) test -run '^$$' -bench Incorporate -benchmem ./internal/stream

# The benchmark set the trajectory record tracks: the facade's cold
# bring-up footprint, kernel-level GEMM, the batched path, the QR at the
# streaming update's shapes, the streaming hot loop, the pairwise merge,
# the sketched-push wire traffic, the two-rank TSQR seeding footprint and
# the worker's steady PUSH decode. Kept in one
# place so emitting a baseline and emitting a CI run measure the same
# thing.
TRAJ_BENCH = BenchmarkFacadeBringUp$$|BenchmarkMulIntoSquare256$$|BenchmarkMulSquare512$$|BenchmarkMulTallSkinny$$|BenchmarkBatchedSkinny$$|BenchmarkStreamDot$$|BenchmarkStreamAxpy$$|BenchmarkQRStreamShape$$|BenchmarkIncorporateSteadyStateAllocs$$|BenchmarkIncorporateWorkloadShape$$|BenchmarkMergePairSteadyState$$|BenchmarkMergeTree8$$|BenchmarkSketchedPushWire$$|BenchmarkParallelInitialize$$|BenchmarkSessionPushDecode$$
TRAJ_COUNT ?= 5
RUNID ?= local

# Record the current machine's numbers as BENCH_<RUNID>.json and compare
# against the committed BENCH_baseline.json: >10% median ns/op regression
# (same environment) or any alloc increase (any environment) fails.
bench-trajectory:
	$(GO) test -run '^$$' -bench '$(TRAJ_BENCH)' -benchmem -count $(TRAJ_COUNT) \
		. ./internal/mat ./internal/linalg ./internal/stream ./internal/merge ./internal/core ./internal/launch \
		| $(GO) run ./cmd/parsvd-benchtraj emit -runid "$(RUNID)" -o BENCH_$(RUNID).json
	$(GO) run ./cmd/parsvd-benchtraj compare -baseline BENCH_baseline.json -current BENCH_$(RUNID).json

# Rewrite the committed baseline from this machine (run after intentional
# performance changes, then commit BENCH_baseline.json).
bench-baseline:
	$(GO) test -run '^$$' -bench '$(TRAJ_BENCH)' -benchmem -count $(TRAJ_COUNT) \
		. ./internal/mat ./internal/linalg ./internal/stream ./internal/merge ./internal/core ./internal/launch \
		| $(GO) run ./cmd/parsvd-benchtraj emit -runid baseline -o BENCH_baseline.json

# Re-measure the kernel selection thresholds on this machine and rewrite
# internal/mat/seltab_gen.go (commit the result).
benchtune:
	$(GO) run ./cmd/parsvd-benchtune -o internal/mat/seltab_gen.go
	gofmt -l internal/mat/seltab_gen.go

# Fallback parity: the kernel suite and every suite riding its GEMMs —
# the QR, TSQR, merge, streaming update and the distributed engine with
# its seed — with the assembly micro-kernels disabled, so the pure-Go
# reference path stays correct.
noasm-test:
	PARSVD_NOASM=1 $(GO) test -count 1 ./internal/mat ./internal/linalg ./internal/tsqr ./internal/merge ./internal/stream ./internal/core
	PARSVD_NOASM=1 $(GO) test -run '^$$' -bench 'BenchmarkIncorporateSteadyStateAllocs$$' -benchmem ./internal/stream

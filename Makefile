# Development entry points. `make check` is the tier-1 gate every PR must
# keep green; CI (.github/workflows/ci.yml) runs the same targets.

GO ?= go
# benchstat wants repeated samples; `make bench BENCH_COUNT=10` feeds it.
BENCH_COUNT ?= 1

.PHONY: check build test vet fmt race smoke dist-smoke serve-smoke crash-smoke merge-smoke coord-smoke sketch-smoke examples examples-gate bench bench-gate bench-stream bench-trajectory bench-baseline benchtune noasm-test worker fuzz-smoke

check: build test vet fmt

build:
	$(GO) build ./...

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

# Multi-process smoke: 4 parsvd-worker OS processes over loopback TCP,
# verified bit-for-bit against the in-process transport and against the
# serial reference. Fast enough for every CI run.
smoke:
	$(GO) test -short -run 'TestTCPFourRankSmoke' -v ./internal/launch

worker:
	$(GO) build -o bin/parsvd-worker ./cmd/parsvd-worker

# Persistent-fleet smoke: a 4-rank worker fleet held open across the
# whole deterministic workload, fed real snapshot batches over the wire
# (stdin frames -> row scatter -> TCP collectives), must match the serial
# reference within 1e-12. The launcher side runs under the race detector;
# the cross-backend conformance + fault-injection suites ride along.
dist-smoke:
	CI=1 $(GO) test -race -count 1 -v \
		-run 'TestDistributedWireSmoke|TestConformance|TestDistributedWorkerDeath|TestDistributedCloseReaps' .
	CI=1 $(GO) test -race -count 1 -run 'TestSession' ./internal/launch

# One pass over the committed fuzz seed corpora plus a short live fuzz of
# the session frame/payload decoders and the HTTP binary matrix body
# decoder (truncated frames, hostile lengths, non-finite payloads must
# error, never panic or over-allocate).
fuzz-smoke:
	$(GO) test -run 'Fuzz|TestDecodeBlock|TestReadSessionFrame' ./internal/launch
	$(GO) test -run 'FuzzReadMatrix' ./server
	$(GO) test -fuzz FuzzDecodeBlock -fuzztime 10s -run '^$$' ./internal/launch
	$(GO) test -fuzz FuzzReadMatrix -fuzztime 10s -run '^$$' ./server

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
# (balanced vs left-deep) must change results only within the accumulated
# error bound. The internal/merge unit + property suite and the
# server-side merge tests (corrupt uploads, WAL merge-record replay,
# SIGKILL around /merge) ride along.
merge-smoke:
	$(GO) test -run 'TestMergeConformance' -v -count 1 .
	$(GO) test -count 1 ./internal/merge
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
# TestSketchSmoke — a 4-rank TCP worker fleet fed compressed (Q, S)
# factor pairs must match the serial unsketched reference within 1e-4
# with >= 4x wire reduction — plus the server-side sketched ingest, WAL
# replay and computed-Retry-After tests. bench-gate rides along so the
# sketch path cannot regress the zero-allocs/op streaming hot path.
sketch-smoke:
	CI=1 $(GO) test -count 1 -v -run 'TestSketch' .
	$(GO) test -count 1 -run 'TestPushSketchEndToEnd|TestSketchWALReplay|TestRetryAfterDerivedFromQueueOccupancy|TestRetryAfterValueReachesBackoff' ./server/...
	$(MAKE) bench-gate

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

# Regression gate on the key benches: the blocked-GEMM kernel, the batched
# skinny-GEMM path, the packing-free dot-block and broadcast-axpy routes,
# the zero-allocation QR at the streaming update's shapes, the
# zero-allocation streaming hot path (at the steady-state bench's shape
# and at fit-serial's) and the zero-allocation pairwise merge. Fails if
# any zero-alloc benchmark reports allocations per op.
bench-gate:
	@fail=0; \
	mat=$$($(GO) test -run '^$$' -bench 'BenchmarkMulSquare512$$|BenchmarkBatchedSkinny$$|BenchmarkStreamDot$$|BenchmarkStreamAxpy$$' -benchmem ./internal/mat) || fail=1; \
	qr=$$($(GO) test -run '^$$' -bench 'BenchmarkQRStreamShape$$' -benchmem ./internal/linalg) || fail=1; \
	stream=$$($(GO) test -run '^$$' -bench 'BenchmarkIncorporateSteadyStateAllocs$$|BenchmarkIncorporateWorkloadShape$$' -benchmem ./internal/stream) || fail=1; \
	merge=$$($(GO) test -run '^$$' -bench 'BenchmarkMergePairSteadyState$$' -benchmem ./internal/merge) || fail=1; \
	out=$$(printf '%s\n%s\n%s\n%s\n' "$$mat" "$$qr" "$$stream" "$$merge"); \
	echo "$$out"; \
	if [ $$fail -ne 0 ]; then echo "bench-gate: benchmarks failed"; exit 1; fi; \
	echo "$$out" | awk ' \
		/^BenchmarkIncorporateSteadyStateAllocs/ { \
			for (i = 1; i <= NF; i++) if ($$i == "allocs/op") { seenS = 1; allocsS = $$(i-1) } \
		} \
		/^BenchmarkBatchedSkinny/ { \
			for (i = 1; i <= NF; i++) if ($$i == "allocs/op") { seenB = 1; allocsB = $$(i-1) } \
		} \
		/^BenchmarkMergePairSteadyState/ { \
			for (i = 1; i <= NF; i++) if ($$i == "allocs/op") { seenM = 1; allocsM = $$(i-1) } \
		} \
		/^BenchmarkQRStreamShape\// { \
			for (i = 1; i <= NF; i++) if ($$i == "allocs/op") { seenQ++; if ($$(i-1) + 0 > allocsQ + 0) allocsQ = $$(i-1) } \
		} \
		/^BenchmarkIncorporateWorkloadShape/ { \
			for (i = 1; i <= NF; i++) if ($$i == "allocs/op") { seenW = 1; allocsW = $$(i-1) } \
		} \
		/^BenchmarkStreamDot/ { \
			for (i = 1; i <= NF; i++) if ($$i == "allocs/op") { seenD = 1; allocsD = $$(i-1) } \
		} \
		/^BenchmarkStreamAxpy\// { \
			for (i = 1; i <= NF; i++) if ($$i == "allocs/op") { seenA++; if ($$(i-1) + 0 > allocsA + 0) allocsA = $$(i-1) } \
		} \
		END { \
			if (!seenS) { print "bench-gate: BenchmarkIncorporateSteadyStateAllocs did not run"; exit 1 } \
			if (!seenB) { print "bench-gate: BenchmarkBatchedSkinny did not run"; exit 1 } \
			if (!seenM) { print "bench-gate: BenchmarkMergePairSteadyState did not run"; exit 1 } \
			if (seenQ < 2) { print "bench-gate: BenchmarkQRStreamShape did not run both shapes"; exit 1 } \
			if (!seenW) { print "bench-gate: BenchmarkIncorporateWorkloadShape did not run"; exit 1 } \
			if (!seenD) { print "bench-gate: BenchmarkStreamDot did not run"; exit 1 } \
			if (seenA < 2) { print "bench-gate: BenchmarkStreamAxpy did not run both shapes"; exit 1 } \
			if (allocsS + 0 > 0) { print "bench-gate: steady-state streaming path allocates (" allocsS " allocs/op, want 0)"; exit 1 } \
			if (allocsB + 0 > 0) { print "bench-gate: batched skinny path allocates (" allocsB " allocs/op, want 0)"; exit 1 } \
			if (allocsM + 0 > 0) { print "bench-gate: steady-state merge path allocates (" allocsM " allocs/op, want 0)"; exit 1 } \
			if (allocsQ + 0 > 0) { print "bench-gate: warm-workspace QR allocates (" allocsQ " allocs/op, want 0)"; exit 1 } \
			if (allocsW + 0 > 0) { print "bench-gate: streaming update at the fit-serial shape allocates (" allocsW " allocs/op, want 0)"; exit 1 } \
			if (allocsD + 0 > 0) { print "bench-gate: dot-block route allocates (" allocsD " allocs/op, want 0)"; exit 1 } \
			if (allocsA + 0 > 0) { print "bench-gate: broadcast-axpy route allocates (" allocsA " allocs/op, want 0)"; exit 1 } \
			print "bench-gate OK: streaming " allocsS "/" allocsW " allocs/op, batched " allocsB " allocs/op, merge " allocsM " allocs/op, QR " allocsQ + 0 " allocs/op, dot-block " allocsD " allocs/op, broadcast-axpy " allocsA + 0 " allocs/op" \
		}'

# The benchmark set the trajectory record tracks: kernel-level GEMM, the
# batched path, the QR at the streaming update's shapes, the streaming hot
# loop, the pairwise merge and the sketched-push wire traffic. Kept in one
# place so emitting a baseline and emitting a CI run measure the same
# thing.
TRAJ_BENCH = BenchmarkMulIntoSquare256$$|BenchmarkMulSquare512$$|BenchmarkMulTallSkinny$$|BenchmarkBatchedSkinny$$|BenchmarkStreamDot$$|BenchmarkStreamAxpy$$|BenchmarkQRStreamShape$$|BenchmarkIncorporateSteadyStateAllocs$$|BenchmarkIncorporateWorkloadShape$$|BenchmarkMergePairSteadyState$$|BenchmarkMergeTree8$$|BenchmarkSketchedPushWire$$
TRAJ_COUNT ?= 5
RUNID ?= local

# Record the current machine's numbers as BENCH_<RUNID>.json and compare
# against the committed BENCH_baseline.json: >10% median ns/op regression
# (same environment) or any alloc increase (any environment) fails.
bench-trajectory:
	$(GO) test -run '^$$' -bench '$(TRAJ_BENCH)' -benchmem -count $(TRAJ_COUNT) \
		. ./internal/mat ./internal/linalg ./internal/stream ./internal/merge \
		| $(GO) run ./cmd/parsvd-benchtraj emit -runid "$(RUNID)" -o BENCH_$(RUNID).json
	$(GO) run ./cmd/parsvd-benchtraj compare -baseline BENCH_baseline.json -current BENCH_$(RUNID).json

# Rewrite the committed baseline from this machine (run after intentional
# performance changes, then commit BENCH_baseline.json).
bench-baseline:
	$(GO) test -run '^$$' -bench '$(TRAJ_BENCH)' -benchmem -count $(TRAJ_COUNT) \
		. ./internal/mat ./internal/linalg ./internal/stream ./internal/merge \
		| $(GO) run ./cmd/parsvd-benchtraj emit -runid baseline -o BENCH_baseline.json

# Re-measure the kernel selection thresholds on this machine and rewrite
# internal/mat/seltab_gen.go (commit the result).
benchtune:
	$(GO) run ./cmd/parsvd-benchtune -o internal/mat/seltab_gen.go
	gofmt -l internal/mat/seltab_gen.go

# Fallback parity: the kernel suite and every suite riding its GEMMs —
# the QR, TSQR, merge and streaming update — with the assembly
# micro-kernels disabled, so the pure-Go reference path stays correct.
noasm-test:
	PARSVD_NOASM=1 $(GO) test -count 1 ./internal/mat ./internal/linalg ./internal/tsqr ./internal/merge ./internal/stream
	PARSVD_NOASM=1 $(GO) test -run '^$$' -bench 'BenchmarkIncorporateSteadyStateAllocs$$' -benchmem ./internal/stream

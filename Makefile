# Development entry points. `make check` is the tier-1 gate every PR must
# keep green; CI (.github/workflows/ci.yml) runs the same targets. Every
# test runs once in `check` and once more under the race detector in
# `race`; no other target re-runs them.

GO ?= go
# benchstat wants repeated samples; `make bench BENCH_COUNT=10` feeds it.
BENCH_COUNT ?= 1

.PHONY: check build cross test vet fmt race examples bench bench-trajectory bench-baseline benchtune noasm-test worker fuzz-smoke

check: build cross test vet fmt examples

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

worker:
	$(GO) build -o bin/parsvd-worker ./cmd/parsvd-worker

# A short live fuzz of every decoder that parses another process's bytes
# or a crashed process's files (`go test ./...` already runs each Fuzz
# target over its committed seed corpus): the mesh frame reader with its
# hello, table, ident and data-body decoders (including the rendezvous
# handshake), the PUSH block reader and the worker's transposing in-place
# PUSH decoder (mat.ReadValuesT) checked against it
# (FuzzDecodeBlockInPlace), the PUSH-SKETCH factor-pair decoder, the
# launcher's SAVE checkpoint reader (FuzzReadBlobState), the HTTP binary
# matrix body decoder, the HTTP JSON body decoder (create specs, matrices,
# sketch pairs and merge requests, FuzzDecodeJSONBody), checkpoint loading,
# the WAL reader behind Open/Replay and the server's WAL record decoder
# (FuzzDecodeRecord) (truncated frames, hostile lengths and shapes,
# non-finite payloads must error, never panic or over-allocate). The record
# decoder's seeds are whole WAL records of 1–2 KB, which the fuzzer's
# default 60 s minimization of each new input would spend the whole
# 10 s on, so its live run minimizes for at most 1 s.
fuzz-smoke:
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

# Public-API consumer gate: quickstart must run end-to-end, and neither
# examples/ nor README code blocks may import goparsvd/internal (`build`
# compiles every example).
examples:
	@bad=$$(grep -rn '"goparsvd/internal' examples/ README.md || true); \
	if [ -n "$$bad" ]; then \
		echo "examples: public consumers must not import goparsvd/internal:"; \
		echo "$$bad"; exit 1; \
	fi
	$(GO) run ./examples/quickstart

# benchstat-compatible output: standard `go test -bench` lines; pipe two
# runs into `benchstat old.txt new.txt`.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count $(BENCH_COUNT) ./internal/mat ./internal/linalg ./internal/stream ./internal/merge

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

# Record the current machine's numbers as BENCH_<RUNID>.json. A
# bench-trajectory run then compares them against the committed
# BENCH_baseline.json: >10% median ns/op regression (same environment) or
# any alloc increase (any environment) fails. bench-baseline records as
# RUNID=baseline, which rewrites that file (run it after intentional
# performance changes, then commit BENCH_baseline.json).
bench-trajectory bench-baseline:
	$(GO) test -run '^$$' -bench '$(TRAJ_BENCH)' -benchmem -count $(TRAJ_COUNT) \
		. ./internal/mat ./internal/linalg ./internal/stream ./internal/merge ./internal/core ./internal/launch \
		| $(GO) run ./cmd/parsvd-benchtraj emit -runid "$(RUNID)" -o BENCH_$(RUNID).json
	$(if $(filter bench-trajectory,$@),$(GO) run ./cmd/parsvd-benchtraj compare -baseline BENCH_baseline.json -current BENCH_$(RUNID).json)

bench-baseline: override RUNID = baseline

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

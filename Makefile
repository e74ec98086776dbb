# Targets mirror .github/workflows/ci.yml so a green `make ci` locally means
# a green CI run.

GO ?= go

.PHONY: all build fmt lint graphmatlint staticcheck govulncheck test bench-module race bench fuzz kernel-parity test-cpus crash ci

all: build

# The arm64 lines keep the other kernels backend honest: the dispatch table
# and the .s files are per-architecture, so an amd64-only change can break the
# arm64 build — or its assembly declarations, which vet checks — unseen. Both
# run offline (cross-compiling pure Go needs no toolchain beyond go itself).
build:
	$(GO) build ./...
	$(GO) build ./examples/... ./cmd/...
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/kernels

fmt:
	gofmt -w .

# lint = the non-test static gates CI runs: formatting, vet, staticcheck,
# govulncheck and the graphmatlint invariant suite — identical commands to
# the CI steps, so a green `make lint` locally means green lint in CI.
lint: staticcheck govulncheck graphmatlint
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

# graphmatlint statically enforces the engine's correctness invariants
# (snapshot pin release, fold determinism, cancellation polling, operator
# purity, hot-path call bans — see internal/lint). It runs through go vet's
# unitchecker protocol so test files are covered and results are cached.
graphmatlint:
	$(GO) install ./cmd/graphmatlint
	$(GO) vet -vettool="$$($(GO) env GOPATH)/bin/graphmatlint" ./...

# CI installs staticcheck at the version pinned in tools/go.mod; locally it
# runs only if already on PATH, so the target works on offline machines.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# Same PATH gate as staticcheck: govulncheck needs the network for the vuln
# database, so offline machines skip it and CI enforces it.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi

test:
	$(GO) test ./...

# benchmark/ is its own Go module (replace graphmat => ../), so the root
# `go build/vet/test ./...` never compile it: without this target an API
# removal here could break the repository's benchmark unnoticed. Its smoke
# test drives all four workloads against a live graphmatd with bit-identical
# oracles. CI runs this target.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# internal/graph carries the versioned store (snapshot isolation under
# concurrent updates + compaction); algorithms carries the store-backed
# registry instances; bitvec backs every frontier the workers share and gen
# feeds the parallel generators; sched is the worker pool every phase runs
# on and kernels holds the dispatch table those workers read (ForceBackend
# swaps it under test). All matter under -race. CI runs this target, so the
# package list lives here only.
race:
	$(GO) test -race ./internal/core/... ./internal/sched/... ./internal/kernels/... ./internal/sparse/... ./internal/server/... ./internal/graph/... ./internal/bitvec/... ./internal/gen/... ./internal/snap/... ./algorithms/...

# Fuzz smoke over the graph readers, the update-stream parser, the snapshot
# reader, the run-reply number encoder, the SIMD kernel backends and the
# kernel walks: 10s per target (go test takes one -fuzz pattern at a time).
# The reader targets assert parallel parse ≡ sequential parse; the update
# target asserts the single-pass NDJSON parser ≡ the per-line encoding/json
# oracle and that an accepted batch round-trips through WriteUpdates; the
# snapshot target asserts GMATSNAP Open/Verify never panic on torn, mutated or
# forged-and-re-signed files and that an image they accept validates and
# assembles into a store (its minimizer is capped: on ~1 KB seeds the default
# 60 s budget would eat the whole run); the reply target asserts every finite
# float64 is encoded byte for byte as encoding/json encodes it; the kernel
# targets assert every SIMD backend ≡ the scalar oracle bit for bit; the walk
# target asserts pull ≡ push ≡ a naive fold of the live edge set and the row
# walk ≡ a naive "first live in-neighbour of each unsettled row" over random
# base+delta partitions, frontiers, settled sets and row cuts. CI runs this
# target.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzReadMTX$$' -fuzztime=10s ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzReadEdgeList$$' -fuzztime=10s ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzReadBinary$$' -fuzztime=10s ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzParseUpdates$$' -fuzztime=10s ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzOpenSnap$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/snap
	$(GO) test -run='^$$' -fuzz='^FuzzAppendJSONFloat$$' -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzBitvecWords$$' -fuzztime=10s ./internal/kernels
	$(GO) test -run='^$$' -fuzz='^FuzzDenseFold$$' -fuzztime=10s ./internal/kernels
	$(GO) test -run='^$$' -fuzz='^FuzzLayeredWalk$$' -fuzztime=10s ./internal/core

# The kernel backend parity matrix (CI runs this target): the differential
# suites under each backend forced via GRAPHMAT_KERNEL (unsupported names
# fall back to scalar, covering the fallback path).
kernel-parity:
	for backend in scalar avx2 neon; do \
		GRAPHMAT_KERNEL=$$backend $(GO) test -count=1 ./internal/kernels ./internal/bitvec ./internal/core ./algorithms || exit 1; \
	done

# One pass over every benchmark: perf regressions that break a benchmark
# surface as failures-to-run.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# The scheduler and the engine at one and four procs: -cpu 1 runs every phase
# inline on the caller (the one-slot pool), -cpu 4 parks and wakes workers and
# steals across them. The same asserting tests cover both paths side by side.
# CI runs this target.
test-cpus:
	$(GO) test -count=1 -cpu=1,4 ./internal/sched ./internal/core

# The durability contract by name: a daemon SIGKILLed after acking update
# batches but before any checkpoint reboots from snapshot + WAL with every
# acked batch intact, and a torn snapshot falls back to the previous
# generation. `test` runs these too; the separate target keeps crash safety
# visible as its own gate. CI runs this target.
crash:
	$(GO) test -run='TestPersistCrashRecovery|TestPersistTornSnapshotFallback' -v -count=1 ./internal/server

ci: build lint test bench-module kernel-parity race fuzz bench test-cpus crash

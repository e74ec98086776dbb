# Targets mirror .github/workflows/ci.yml so a green `make ci` locally means
# a green CI run.

GO ?= go

.PHONY: all build fmt lint graphmatlint staticcheck govulncheck test examples bench-module race fuzz kernel-parity test-cpus crash ci

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
# unitchecker protocol so test files are covered and results are cached. The
# vet tool is built into a temporary directory, removed on exit, so the
# target writes nothing outside the checkout's build cache.
graphmatlint:
	@bin="$$(mktemp -d)"; trap 'rm -rf "$$bin"' EXIT; \
	$(GO) build -o "$$bin/graphmatlint" ./cmd/graphmatlint || exit 1; \
	$(GO) vet -vettool="$$bin/graphmatlint" ./...

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

# Every example built and run to completion, failing on the first non-zero
# exit: `build` only compiles them, and an example can compile and still
# fail at run time. All eight take about 5 s on two cores (multisource most
# of it). CI runs this target.
examples:
	@bin="$$(mktemp -d)"; trap 'rm -rf "$$bin"' EXIT; \
	$(GO) build -o "$$bin/" ./examples/... || exit 1; \
	for ex in "$$bin"/*; do \
		echo "run example $$(basename "$$ex")"; \
		"$$ex" >/dev/null || { echo "example $$(basename "$$ex") failed"; exit 1; }; \
	done

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
# swaps it under test). The root package's acceptance tests (batch PPR,
# direction-optimized BFS, snapshot restart, live-update BFS) drive the whole
# stack at once, scaled down under -race (raceEnabled). All matter under
# -race. The pool's hold tests (workers spinning between jobs, jobs reused
# from its free list) run ten times over, since a spin racing a publish or
# a release is timing-dependent; so does the shared-store model test on one
# CPU, where a reader most often sees the master a batch ahead of its epoch.
# CI runs this target, so the package list lives here only.
race:
	$(GO) test -race . ./internal/core/... ./internal/sched/... ./internal/kernels/... ./internal/sparse/... ./internal/server/... ./internal/graph/... ./internal/bitvec/... ./internal/gen/... ./internal/snap/... ./algorithms/...
	$(GO) test -race -count=10 -run 'Hold' ./internal/sched
	$(GO) test -race -count=20 -cpu=1 -run '^TestStoreSharedModel$$' ./internal/graph

# Fuzz smoke over the graph readers, the update-stream parser, the snapshot
# reader, WAL replay, the run-reply number and series encoder, the SIMD kernel backends, the
# COO counting sort, the DCSC column index and the kernel walks: 10s per
# target (go test takes one -fuzz pattern at a time).
# The reader targets assert parallel parse ≡ sequential parse, and the binary
# reader that every file it accepts holds only ids inside its dimensions; the update
# target asserts the single-pass NDJSON parser ≡ the per-line encoding/json
# oracle and that an accepted batch round-trips through WriteUpdates; the
# snapshot target asserts GMATSNAP Open/Verify never panic on torn, mutated or
# forged-and-re-signed files and that an image they accept validates and
# assembles into a store (its minimizer is capped: on ~1 KB seeds the default
# 60 s budget would eat the whole run); the WAL target asserts ReadWAL/OpenWAL
# never panic on torn, bit-flipped or re-signed logs, that the batches they
# replay re-append to exactly the file's valid prefix, that OpenWAL truncates
# to that prefix and that an append after it replays last; the reply targets assert every finite
# float64, and every series of repeats, alternations and more distinct values
# than the series' value cache has slots (cache hits and evictions included,
# and a NaN or ±Inf after either stopping the series), is encoded byte
# for byte as encoding/json encodes it (the series target's minimizer is
# capped too: its many small new-coverage inputs would otherwise stall the
# workers for most of the run); the kernel
# targets assert every SIMD backend ≡ the scalar oracle bit for bit; the sort
# target asserts the row- and col-major counting sort at 1–8 workers ≡
# slices.SortStableFunc, equal keys in input order (its minimizer is capped
# like the series target's, for the same reason); the column-index target
# asserts FindColumn ≡ a linear search of JC for every id and one bitmap bit
# per stored column, tombstones included; the walk
# target asserts the value sinks' pull ≡ push ≡ a naive fold of the live
# edge set — output, edges and flat edges — over random plain and
# base+delta partitions, frontiers and row cuts — its float64 and uint32
# frontiers carrying signed zeros, infinities, quiet NaNs with distinct
# payloads, subnormals and the labels 0 and MaxUint32, so its full-frontier
# seeds (density 255, bare literals included) fold whole plain partitions
# through the sum and min sinks' identity seeds and mask-free loops; the
# mask-walk target asserts a boolean program's column-mask fold ≡ the value
# fold in output masks, applied values and edges through pull and push, and
# its row walk ≡ a naive "first live in-neighbour of each unsettled row" of
# a fresh build — output masks, applied values and live slots examined —
# over the same kind of random partitions (the row walk merging each base
# row with its delta row), frontiers of every width from one column (the
# scalar mask fold and its settled bitmap) to 64, settled masks and row
# cuts. CI runs this target.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzReadMTX$$' -fuzztime=10s ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzReadEdgeList$$' -fuzztime=10s ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzReadBinary$$' -fuzztime=10s ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzParseUpdates$$' -fuzztime=10s ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzOpenSnap$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/snap
	$(GO) test -run='^$$' -fuzz='^FuzzReadWAL$$' -fuzztime=10s ./internal/snap
	$(GO) test -run='^$$' -fuzz='^FuzzAppendJSONFloat$$' -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzReplySeries$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzBitvecWords$$' -fuzztime=10s ./internal/kernels
	$(GO) test -run='^$$' -fuzz='^FuzzDenseFold$$' -fuzztime=10s ./internal/kernels
	$(GO) test -run='^$$' -fuzz='^FuzzCountingSort$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/sparse
	$(GO) test -run='^$$' -fuzz='^FuzzColumnIndex$$' -fuzztime=10s ./internal/sparse
	$(GO) test -run='^$$' -fuzz='^FuzzLayeredWalk$$' -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzMaskWalk$$' -fuzztime=10s ./internal/core

# The kernel backend parity matrix (CI runs this target): the differential
# suites under each backend forced via GRAPHMAT_KERNEL (unsupported names
# fall back to scalar, covering the fallback path).
kernel-parity:
	for backend in scalar avx2 neon; do \
		GRAPHMAT_KERNEL=$$backend $(GO) test -count=1 ./internal/kernels ./internal/bitvec ./internal/core ./algorithms || exit 1; \
	done

# The scheduler, the engine and the algorithms at one and four procs: -cpu 1
# runs every phase inline on the caller (the one-slot pool), -cpu 4 parks and
# wakes workers and steals across them — on a machine with fewer than four
# CPUs a held pool never spins there (a hold never oversubscribes), so the
# parking path is covered, and the spinning one at -cpu 4 on four or more
# CPUs and in the sched hold tests. The same asserting tests cover both
# paths side by side — in algorithms, the batch ≡ solo and store differentials,
# which run the apply phase that also sends the next superstep's messages.
# The server's admission tests run too: at -cpu 1 the hand-off from an ending
# run to the batch gathered behind it has a single P. CI runs this target.
test-cpus:
	$(GO) test -count=1 -cpu=1,4 ./internal/sched ./internal/core ./algorithms
	$(GO) test -count=1 -cpu=1,4 -run 'Batch|Coalesc|Width1' ./internal/server

# The durability contract by name: a daemon SIGKILLed after acking update
# batches but before any checkpoint reboots from snapshot + WAL with every
# acked batch intact, a torn snapshot falls back to the previous generation,
# and a deleted graph's durable state goes with it, so a re-registration of
# its name parses its own source and its snapshot mappings close once the
# last request reading them ends, and of two registrations of one name racing
# each other only the winner writes the name's directory. `test` runs these
# too; the separate target keeps crash safety visible as its own gate. CI
# runs this target.
crash:
	$(GO) test -run='TestPersistCrashRecovery|TestPersistTornSnapshotFallback|TestDeleteDurableGraphThenReRegister|TestConcurrentDurableAddOneName|TestDeletedDurableGraphUnmaps' -v -count=1 ./internal/server

ci: build lint test examples bench-module kernel-parity race fuzz test-cpus crash

# Developer entry points. `make check` is the full CI gate; each named step
# in .github/workflows/ci.yml calls one of these targets, so the package
# list of every gate lives here and only here.

GO ?= go

# Packages whose concurrency claims are exercised under the race detector.
# stress_race_test.go in internal/core is gated on the `race` build tag,
# so it runs here and nowhere else.
RACE_PKGS = ./internal/core/ ./internal/exec/ ./internal/server/ ./internal/client/ ./internal/nndescent/ ./internal/wal/ ./internal/graph/ ./internal/theap/ ./internal/sq/ ./internal/fault/ ./internal/blockcache/

.PHONY: check fmt vet build test race purego lint lockgraph lockgraph-check invariants faults recover oneproc fuzz-smoke bench-sq bench-tier bench-chaos allocs-gate loc

check: fmt vet build test race purego lint lockgraph-check invariants faults recover oneproc

# The tknnlint corpus under cmd/tknnlint/testdata is lint-rule input, not
# repository code; its formatting is frozen with its goldens.
fmt:
	@out=$$(find . -name '*.go' -not -path './cmd/tknnlint/testdata/*' -print0 | xargs -0 gofmt -l); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# The pure-Go distance kernels (internal/vec/kernel.go) are what runs without
# AVX2 and on every other GOARCH, and the assembly's differential reference:
# the packages whose results depend on the kernel's bits (goldens, oracle,
# async-vs-sync, compressed walks and scans) must pass on them too, and the
# arm64 cross-build keeps the fallback file compiling. The Go twins match
# the assembly only if every product is rounded before its add, so the
# arm64 compile of internal/vec (a GOARCH whose compiler fuses) must hold no
# fused multiply-add; the listing must name a kernel, or the check proves
# nothing.
PUREGO_PKGS = . ./internal/vec ./internal/graph ./internal/nndescent ./internal/persist ./internal/oracle ./internal/core ./internal/sq ./internal/exec ./internal/bsbf

purego:
	$(GO) test -tags purego $(PUREGO_PKGS)
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/vec
	@asm=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/vec 2>&1) || { echo "$$asm"; exit 1; }; \
	echo "$$asm" | grep -q 'squaredL2CodesGo' || { echo "purego: no arm64 listing of internal/vec's kernels"; exit 1; }; \
	if echo "$$asm" | grep -E 'FMADD|FMSUB|FNMADD|FNMSUB'; then echo "purego: fused multiply-add in internal/vec's arm64 build"; exit 1; fi

lint:
	$(GO) run ./cmd/tknnlint ./...

# Module-wide lock-order graph (Graphviz). Render with
# `dot -Tsvg lockorder.dot -o lockorder.svg`; the lock-order lint rule
# fails `make lint` if this graph ever acquires a cycle.
lockgraph:
	$(GO) run ./cmd/tknnlint -lockgraph ./... > lockorder.dot

# The checked-in graph must be the current one. Edge labels carry
# file:line witnesses, so an edit above a witness line needs a
# `make lockgraph` too.
lockgraph-check:
	$(GO) run ./cmd/tknnlint -lockgraph ./... | diff - lockorder.dot

# Deep-validation build: the whole suite with runtime invariant assertions
# compiled in (internal/invariant), including the differential oracle
# sweep in internal/oracle, then the race detector over the packages whose
# assertions run inside locks.
INVARIANTS_RACE_PKGS = ./internal/core/ ./internal/theap/ ./internal/wal/ ./internal/oracle/

invariants:
	$(GO) test -tags tknn_invariants ./...
	$(GO) test -tags tknn_invariants -race $(INVARIANTS_RACE_PKGS)

# Fault-injection build: the whole suite with the internal/fault hooks
# compiled in (build tag tknn_fault), including the injected-failure WAL
# recovery tests, then the race detector over the packages with injection
# points. Default builds compile the hooks out entirely.
FAULTS_RACE_PKGS = ./internal/fault/ ./internal/wal/ ./internal/server/ ./internal/blockcache/

faults:
	$(GO) test -tags tknn_fault ./...
	$(GO) test -tags tknn_fault -race $(FAULTS_RACE_PKGS)

# Crash-recovery gate: the kill-at-random-offset and torn-tail tests with
# fresh state (-count=1), then the whole WAL package under the race
# detector, then the daemon's own SIGTERM-and-restart round trip.
recover:
	$(GO) test -count=1 -run 'Crash|Recovery|TornTail|Fuzz' ./internal/wal/
	$(GO) test -race ./internal/wal/...
	$(GO) test -count=1 -run Restart ./cmd/tknnd/

# The width-1 schedules of exec.Run (the inline loop, runSeqCold) are
# selected by GOMAXPROCS alone, so on a multi-core host only the tests that
# lower it themselves reach them: run the packages that plan or execute
# queries with one proc (-count=1: the test cache does not key on
# GOMAXPROCS).
ONEPROC_PKGS = . ./internal/exec ./internal/core ./internal/bsbf ./internal/sf ./internal/ivf ./internal/server

oneproc:
	GOMAXPROCS=1 $(GO) test -count=1 $(ONEPROC_PKGS)

# The fuzzers, fuzzing for 10 s each (`make test` runs only their seed
# corpora): the /search and /vectors handlers must answer 200, 400 or 413
# and count what they acknowledge, the wire decoders must match
# json.Unmarshal, the graph walk must return exactly its reference walk's
# answer, the bounded frontier queue must match its sort model, and the
# checking graph decoder must accept exactly what CSR.Validate accepts. Each
# entry is package:target; Go fuzzes one target per run.
FUZZ_SMOKE = ./internal/server:FuzzSearchBody ./internal/server:FuzzVectorsBody \
	./internal/server:FuzzWireMatchesEncodingJSON ./internal/graph:FuzzWalkMatchesReference \
	./internal/theap:FuzzMinQueueMatchesSortModel ./internal/persist:FuzzReadGraphMatchesValidate

fuzz-smoke:
	@for e in $(FUZZ_SMOKE); do \
		pkg=$${e%%:*}; f=$${e#*:}; \
		$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime 10s $$pkg/ || exit 1; \
	done

# SQ8 compression benchmark: bytes/vector and memory reduction,
# compressed scan throughput, ns/distance for the asymmetric kernel, and
# recall@10 vs the flat index at rerank factors 1/2/4 on the
# drifting-cluster dataset. Writes BENCH_sq.json.
bench-sq:
	$(GO) run ./cmd/mbibench sq

# Tiered-storage benchmark: spill cold blocks to segment files, then
# recall@10 and p50/p99 latency at 1x/4x/16x memory overcommit against
# the all-RAM baseline, plus the cache hit-rate trajectory. Enforces the
# 4x-overcommit gates (recall within 0.01 of all-RAM, p99 bounded) and
# writes BENCH_tier.json.
bench-tier:
	$(GO) run ./cmd/mbibench tier

# Overload/chaos harness: open-loop insert+search traffic at multiples of
# the measured capacity against the admission-controlled server, with the
# deterministic fault schedule compiled in. Enforces the resilience gates
# (shed with 429, no non-injected 5xx, bounded admitted p99, post-burst
# recovery) and writes BENCH_chaos.json.
bench-chaos:
	$(GO) run -tags tknn_fault ./cmd/mbibench chaos

# Allocation gate: a warmed-up Query (the one search body of core and
# bsbf) at GOMAXPROCS 1 — where testing.AllocsPerRun measures — must
# perform zero heap allocations. CI runs this alongside the full suite; the tests
# skip themselves under -race and -tags tknn_invariants, where the runtime
# itself allocates.
allocs-gate:
	$(GO) test -run ZeroAllocs -count=1 ./internal/core/ ./internal/bsbf/

# Code-only non-test Go line count: the yardstick the ROADMAP's design-
# quality slices (direction E) report against. Blank and comment-only lines,
# tests, the lint corpus and the benchmark harness are not counted.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './cmd/tknnlint/testdata/*' -not -path './benchmark/*' | xargs cat | grep -cv '^\s*\(//.*\)\?$$'

GO ?= go

# benchdiff knobs: make benchdiff REF=HEAD~1 WORKLOAD=churn-n512 PAIRS=10
# (SEED is the first pair's; BENCHDIFF_DIR holds the extracted ref tree).
REF ?= HEAD
WORKLOAD ?= churn-n512
PAIRS ?= 10
SEED ?= 1
BENCHDIFF_DIR ?= .benchdiff

# stress knobs: make stress RUN=TestClusterZeroAllocs N=20 (PKG is the
# package under test).
RUN ?= TestClusterZeroAllocs
N ?= 20
PKG ?= ./internal/cluster

.PHONY: all build test verify race short large cliff benchmark-check benchdiff fmt vet lint ci alloc-gates stress loc traffic-large docs examples fuzz-smoke bench-smoke sizes snapshots footprint

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 verification (ROADMAP.md) + fuzz smoke.
verify: build test fuzz-smoke

# Short coverage-guided runs of the wire decoder fuzzers (arbitrary
# bytes must error cleanly, never panic or over-allocate), of the label
# writers (bytes must equal one varint append per field), of the
# shortest-path kernel (distances and parents must equal an O(n^2)
# reference), of the sealed port tables (every probe must equal a binary
# search of the node's ports, before and after a re-seal), of the
# substrate's direct tables (every lookup, filter first, must equal a
# map after a compile, a repair's recompile and a section restore), of the lazy
# oracle's incremental row update (every row, and every next hop derived
# from a reverse row, must equal a fresh search after every reweighting
# batch), of the Init prefixes (every prefix must be the head of the
# full comparator order) and of the churn event stream.
fuzz-smoke:
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzUnmarshalScheme -fuzztime 5s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzUnmarshalFrame -fuzztime 5s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzUnmarshalFlightFrame -fuzztime 5s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzUnmarshalChurnFrame -fuzztime 5s
	$(GO) test ./internal/codec -run '^$$' -fuzz FuzzLabelWriter -fuzztime 5s
	$(GO) test ./internal/graph -run '^$$' -fuzz FuzzSSSP -fuzztime 5s
	$(GO) test ./internal/graph -run '^$$' -fuzz FuzzPortTable -fuzztime 5s
	$(GO) test ./internal/rtz -run '^$$' -fuzz FuzzDirectTable -fuzztime 5s
	$(GO) test ./internal/graph -run '^$$' -fuzz FuzzLazyRowUpdate -fuzztime 5s
	$(GO) test ./internal/rtmetric -run '^$$' -fuzz FuzzInitPrefix -fuzztime 5s
	$(GO) test ./internal/churn -run '^$$' -fuzz FuzzChurnEventStream -fuzztime 5s

# Every go test benchmark once, so they keep compiling and running: the
# hop path's two lookups (graph, rtz), the sealed tables, the snapshot
# encoder and one restored roundtrip per paper scheme (wire). Timings
# come from a full -bench run, not from this.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/graph ./internal/sealed ./internal/rtz ./internal/wire

# E14 space certification: per-node encoded bytes across n=256..4096
# (also: rtroute -sizes).
sizes:
	RTROUTE_LARGE=1 $(GO) test -run TestEncodedSpaceCert -v -timeout 3600s ./internal/eval

race:
	$(GO) test -race ./...

short:
	$(GO) test -short ./...

# 5,000-node lazy-oracle acceptance run (see oracle_equiv_test.go).
large:
	RTROUTE_LARGE=1 $(GO) test -run TestLazyStretchSixLargeScale -v -timeout 3600s .

# Build-cliff probe (ROADMAP 12): StretchSix, then ExStretch at k = 2,
# on RandomSC(n, 4n, 8) at n = 1,024, 2,048 and 4,096 over the default
# oracle budget: build seconds, live heap, peak RSS, oracle misses and
# evictions, and the claim walks that ran past the N_{k-1} prefix.
cliff:
	RTROUTE_LARGE=1 $(GO) test -count=1 -run TestBuildCliff -v -timeout 3600s ./internal/core

# Million-packet serving acceptance: 1,000-node StretchSix over the lazy
# oracle, GOMAXPROCS workers, stretch certified against sequential
# replays (see traffic_test.go).
traffic-large:
	RTROUTE_LARGE=1 $(GO) test -run TestTrafficLargeScale -v -timeout 3600s .

# The repo benchmark's snapshots, byte for byte: sha256 of build-1k's
# three schemes and churn-n512's StretchSix for three seeds, pinned at
# the commit before PR 17 (tier-1 pins only the churn world's; the nine
# n=1024 builds would load both cores beside the alloc gates).
snapshots:
	RTROUTE_LARGE=1 $(GO) test -count=1 -run TestBenchmarkSnapshotsPinned .

# What each paper scheme holds against what it ships at n=1024 on
# build-1k's world: built scheme, snapshot and restored Deployment in
# MiB (the table DESIGN "Build anatomy" cites; tier-1 gates n=256).
footprint:
	RTROUTE_LARGE=1 $(GO) test -count=1 -run TestDeploymentFootprint -v .

# Docs gate: README/DESIGN Go fences must parse (gofmt-clean when
# written as complete files) and relative links must resolve.
docs:
	$(GO) run ./internal/docscheck README.md DESIGN.md

# Every example program under examples/, run to completion: a non-zero
# exit (a log.Fatal, a panic) fails the target.
examples:
	@for d in examples/*/; do echo "== go run ./$$d"; $(GO) run "./$$d" || exit 1; done

# The repo benchmark is a module of its own (benchmark/go.mod), outside
# `./...`: vet it and run its tests here, so a PR that changes a
# function it calls breaks CI before it breaks a capture.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Same-host A/B of the repo benchmark (ROADMAP 5c): REF against the
# working tree on one workload, in interleaved same-seed pairs, all six
# end-to-end metrics per run, medians, win count; fails on a median
# worse than its BENCHMARK.json bound.
benchdiff:
	$(GO) run ./internal/benchdiff -ref $(REF) -workload $(WORKLOAD) -pairs $(PAIRS) -seed $(SEED) -dir $(BENCHDIFF_DIR)

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

lint: fmt vet

# The cluster's amortized-zero allocation gates skip under -race, so CI
# runs them on their own, on one, two and four cores and the host
# default: a steady-state allocation that only shows when completions
# trickle back (few cores) or arrive in floods (many) must fail here.
# All three gates read the malloc delta between a 60 k and a 20 k run, so
# the number of fabric workers that warm up does not enter. The last
# pass repeats them five times with every other core busy: a pool that
# runs dry only when a goroutine is descheduled fails there.
alloc-gates:
	GOMAXPROCS=1 $(GO) test -count=1 -run 'TestClusterZeroAllocs' ./internal/cluster
	GOMAXPROCS=2 $(GO) test -count=1 -run 'TestClusterZeroAllocs' ./internal/cluster
	GOMAXPROCS=4 $(GO) test -count=1 -run 'TestClusterZeroAllocs' ./internal/cluster
	$(GO) test -count=1 -run 'TestClusterZeroAllocs' ./internal/cluster
	$(MAKE) --no-print-directory stress RUN=TestClusterZeroAllocs N=5 PKG=./internal/cluster

# Cold reruns under load: `go test -count=1 -run RUN PKG`, N times, with
# one busy loop on each core but one. Prints each run's verdict and its
# gate readings (the "X process" figures the allocation gates log), then
# passes/N; fails unless all N pass.
stress:
	@busy=$$(( $$(nproc) - 1 )); pids=; \
	for i in $$(seq $$busy); do ( while :; do :; done ) & pids="$$pids $$!"; done; \
	trap 'kill $$pids 2>/dev/null' EXIT INT TERM; \
	pass=0; \
	for i in $$(seq $(N)); do \
		if out=$$($(GO) test -count=1 -v -run '$(RUN)' $(PKG) 2>&1); then pass=$$((pass + 1)); v=ok; else v=FAIL; fi; \
		printf 'run %d/%d %-4s %s\n' $$i $(N) $$v "$$(printf '%s\n' "$$out" | sed -n 's/.*: \([-0-9.]*\) process.*/\1/p' | tr '\n' ' ')"; \
		[ $$v = ok ] || printf '%s\n' "$$out" | grep -E -- '--- FAIL|_test.go' ; \
	done; \
	echo "stress: $$pass/$(N) passed with $$busy busy core(s): go test -run '$(RUN)' $(PKG)"; \
	[ $$pass -eq $(N) ]

# "Least code" as a tracked number: non-test Go lines per package and
# in total, benchmark/ (the instrument) excluded, at REF (git archive'd
# into BENCHDIFF_DIR, as benchdiff does) against the working tree, with
# the delta; a last row totals the test lines apart, so lines deleted
# and lines moved into tests read separately. DESIGN.md "Code size" is
# this table.
LOC_FILES = find . -name '*.go' -not -path './benchmark/*' -not -path './.*/*' -not -path './$(BENCHDIFF_DIR)/*'
LOC_COUNT = $(LOC_FILES) -not -name '*_test.go' | \
	xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); print $$1, d }'
LOC_TESTS = $(LOC_FILES) -name '*_test.go' | xargs cat | wc -l

loc:
	@sha=$$(git rev-parse --short '$(REF)^{commit}') && tree=$(BENCHDIFF_DIR)/$$sha && \
	if [ ! -d "$$tree" ]; then mkdir -p "$$tree" && git archive "$$sha" | tar -x -C "$$tree"; fi && \
	printf "%7s %7s %7s  %s\n" "$$sha" tree delta package && \
	{ (cd "$$tree" && $(LOC_COUNT)) | sed 's/^/a /'; $(LOC_COUNT) | sed 's/^/b /'; } | \
	awk '{ n[$$3, $$1] += $$2; p[$$3] = 1; t[$$1] += $$2 } \
		END { for (d in p) printf "%7d %7d %+7d  %s\n", n[d, "a"], n[d, "b"], n[d, "b"] - n[d, "a"], d; \
		printf "%7d %7d %+7d  total\n", t["a"], t["b"], t["b"] - t["a"] }' | sort -k4 && \
	a=$$(cd "$$tree" && $(LOC_TESTS)) && b=$$($(LOC_TESTS)) && \
	printf "%7d %7d %+7d  %s\n" $$a $$b $$((b - a)) "tests (*_test.go, not in total)"

ci: lint build race alloc-gates snapshots footprint docs examples benchmark-check fuzz-smoke bench-smoke

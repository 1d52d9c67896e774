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

.PHONY: all build test verify race short large benchmark-check benchdiff fmt vet lint ci alloc-gates stress loc traffic-large docs fuzz-smoke sizes snapshots footprint

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 verification (ROADMAP.md) + fuzz smoke.
verify: build test fuzz-smoke

# Short coverage-guided runs of the wire decoder fuzzers (arbitrary
# bytes must error cleanly, never panic or over-allocate) and of the
# lazy oracle's incremental row update (every row must equal a fresh
# search after every reweighting batch).
fuzz-smoke:
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzUnmarshalScheme -fuzztime 5s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzUnmarshalFrame -fuzztime 5s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzUnmarshalFlightFrame -fuzztime 5s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzUnmarshalChurnFrame -fuzztime 5s
	$(GO) test ./internal/graph -run '^$$' -fuzz FuzzLazyRowUpdate -fuzztime 5s

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
# the delta. DESIGN.md "Code size" is this table.
LOC_COUNT = find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.*/*' -not -path './$(BENCHDIFF_DIR)/*' | \
	xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); print $$1, d }'

loc:
	@sha=$$(git rev-parse --short '$(REF)^{commit}') && tree=$(BENCHDIFF_DIR)/$$sha && \
	if [ ! -d "$$tree" ]; then mkdir -p "$$tree" && git archive "$$sha" | tar -x -C "$$tree"; fi && \
	printf "%7s %7s %7s  %s\n" "$$sha" tree delta package && \
	{ (cd "$$tree" && $(LOC_COUNT)) | sed 's/^/a /'; $(LOC_COUNT) | sed 's/^/b /'; } | \
	awk '{ n[$$3, $$1] += $$2; p[$$3] = 1; t[$$1] += $$2 } \
		END { for (d in p) printf "%7d %7d %+7d  %s\n", n[d, "a"], n[d, "b"], n[d, "b"] - n[d, "a"], d; \
		printf "%7d %7d %+7d  total\n", t["a"], t["b"], t["b"] - t["a"] }' | sort -k4

ci: lint build race alloc-gates snapshots footprint docs benchmark-check fuzz-smoke

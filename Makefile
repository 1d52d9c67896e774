GO ?= go

# benchcmp knobs: make benchcmp OUT=new.txt COUNT=10, then
# `benchstat old.txt new.txt`.
BENCH_PATTERN ?= EdgeByPort|MetricBuild|TrafficThroughput|BuildAll1k
COUNT ?= 5
OUT ?= bench-new.txt

# benchdiff knobs: make benchdiff REF=HEAD~1 WORKLOAD=churn-n512 PAIRS=10
# (SEED is the first pair's; BENCHDIFF_DIR holds the extracted ref tree).
REF ?= HEAD
WORKLOAD ?= churn-n512
PAIRS ?= 10
SEED ?= 1
BENCHDIFF_DIR ?= .benchdiff

.PHONY: all build test verify race short large bench bench-smoke benchmark-check benchcmp benchdiff fmt vet lint ci alloc-gates loc traffic traffic-large cluster obs churn churn-cluster docs fuzz-smoke sizes snapshots footprint

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 verification (ROADMAP.md) + wire-decoder fuzz smoke.
verify: build test fuzz-smoke

# Short coverage-guided runs of the wire decoder fuzzers: arbitrary
# bytes must error cleanly, never panic or over-allocate.
fuzz-smoke:
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzUnmarshalScheme -fuzztime 5s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzUnmarshalFrame -fuzztime 5s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzUnmarshalFlightFrame -fuzztime 5s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzUnmarshalChurnFrame -fuzztime 5s

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

# Smoke-sized concurrent serving run under the race detector: exercises
# the compiled-plane hot path end-to-end on every CI push (E12).
traffic:
	$(GO) run -race ./cmd/rtbench -exp traffic -n 96 -packets 20000 -workers 4 -workload zipf -seed 1
	$(GO) run -race ./cmd/rtbench -exp traffic -n 96 -packets 10000 -workers 4 -workload hotspot -scheme rtz -seed 1

# Million-packet serving acceptance: 1,000-node StretchSix over the lazy
# oracle, GOMAXPROCS workers, stretch certified against sequential
# replays (see traffic_test.go).
traffic-large:
	RTROUTE_LARGE=1 $(GO) test -run TestTrafficLargeScale -v -timeout 3600s .

# Smoke-sized sharded cluster serving under the race detector: 8
# partitions over the channel bus via rtbench — once on one core (the
# two-worker floor of the W rule) and once on the host's (one fabric
# worker per core) — then the forced-W route-identity certification and
# the loopback-TCP daemon round (E15); all wire-encode every packet that
# crosses between workers.
cluster:
	GOMAXPROCS=1 $(GO) run -race ./cmd/rtbench -exp cluster -n 96 -packets 20000 -shards 8 -placement rtz -seed 1
	$(GO) run -race ./cmd/rtbench -exp cluster -n 96 -packets 20000 -shards 8 -placement rtz -seed 1
	$(GO) test -race -run 'TestClusterMatchesSequentialRun|TestClusterRouteIdentityAtEveryW|TestClusterSurvivesReorderingAdversary|TestPipelinedTCPMatchesSequential|TestTCPLoopback|TestTCPFlappingPeer|TestTCPBatchingByCount|TestTCPReplyFailureCounted|TestTCPReadLoopDeliversFramesBeforeError' ./internal/cluster

# Observability smoke (E16): the telemetry plane end-to-end under the
# race detector — sink-attached cluster run with the machine-produced
# stage-timing table, then the live-plane tests (snapshot-during-run,
# /metrics == Stats() exactness over loopback TCP, window occupancy,
# link-health counters) and the telemetry package units.
obs:
	$(GO) run -race ./cmd/rtbench -exp traffic -n 96 -packets 20000 -workers 4 -workload zipf -seed 1 -timing
	$(GO) run -race ./cmd/rtbench -exp cluster -n 96 -packets 20000 -shards 8 -placement rtz -seed 1 -timing
	$(GO) test -race -run 'TestClusterLiveSnapshot|TestTCPMetricsEndpoint|TestWindow|TestTCPFlappingPeer' ./internal/cluster
	$(GO) test -race ./internal/telemetry

# Dynamic-topology smoke (E17/E18) under the race detector: the churn
# driver at one shard on the low-dirty world — seeded events, serving
# under fire with typed drops, incremental repair, per-batch
# certification against a from-scratch build — then the maintenance
# property/fuzz tests, the batch-application property and the TCP
# peer-flap units (monitor detection, mid-batch kill).
churn:
	$(GO) run -race ./cmd/rtbench -exp churn -n 128 -packets 6000 -epochs 3 -events 1 -seed 1
	$(GO) test -race -run 'TestIncrementalMatchesFreshUnderEventFuzz|TestRebuildAllMatchesFreshBuild|TestModelReplayDeterminism|TestAffectedSetIsSound' .
	$(GO) test -race -run 'TestApplyBatch' ./internal/churn
	$(GO) test -race -run 'TestTCPPeerDeathDetectedByMonitor|TestTCPPeerFlapMidBatch' ./internal/cluster

# Cluster-churn smoke (E19) under the race detector: churn events ride
# the fabric as wire frames, every shard fences each batch and the last
# repairs the fabric's one replica for all while the rest serve, each
# batch certified bit-identical to the sequential reference and a
# from-scratch build — plus the failing-repair rendezvous, the SSSP
# budget, the reordering adversary, the bounded
# affected-set soundness property, the churn-frame golden/codec units,
# and the mid-repair peer-death / poisoned-repair / hostile-churn-frame
# TCP tests.
churn-cluster:
	$(GO) run -race ./cmd/rtbench -exp churncluster -n 96 -shards 8 -epochs 3 -events 3 -packets 9000 -seed 1
	$(GO) test -race -run 'TestClusterChurnMatchesSequential|TestClusterChurnUnderReorderingAdversary|TestClusterChurnRepairFailureSurfaces|TestSSSPBudget' .
	$(GO) test -race -run 'TestBoundedAffectedSetSupersetOfExact' ./internal/churn
	$(GO) test -race -run 'TestTCPPeerDeathMidRepair|TestRepairFailurePoisonsShard|TestTCPHostileChurnFrames' ./internal/cluster
	$(GO) test -race -run 'TestChurnEventFrameGolden' ./internal/wire

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

bench:
	$(GO) test -run XXX -bench . -benchmem ./...

# One iteration of every benchmark: catches bit-rotted benchmark code on
# every CI push without paying for real measurements.
bench-smoke:
	$(GO) test -run XXX -bench . -benchtime 1x ./...

# The repo benchmark is a module of its own (benchmark/go.mod), outside
# `./...`: vet it and run its tests here, so a PR that changes a
# function it calls breaks CI before it breaks a capture.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Before/after comparisons: run `make benchcmp OUT=old.txt` on the old
# commit, again with OUT=new.txt on the new one, then
# `benchstat old.txt new.txt` (golang.org/x/perf/cmd/benchstat).
benchcmp:
	$(GO) test -run XXX -bench '$(BENCH_PATTERN)' -benchmem -count $(COUNT) . > $(OUT)
	@cat $(OUT)
	@echo "# wrote $(OUT); compare with: benchstat <old>.txt $(OUT)"

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
# the number of fabric workers that warm up does not enter.
alloc-gates:
	GOMAXPROCS=1 $(GO) test -count=1 -run 'TestClusterZeroAllocs' ./internal/cluster
	GOMAXPROCS=2 $(GO) test -count=1 -run 'TestClusterZeroAllocs' ./internal/cluster
	GOMAXPROCS=4 $(GO) test -count=1 -run 'TestClusterZeroAllocs' ./internal/cluster
	$(GO) test -count=1 -run 'TestClusterZeroAllocs' ./internal/cluster

# "Least code" as a tracked number: non-test Go lines per package and
# in total, benchmark/ (the instrument) excluded. DESIGN.md "Code size"
# is this table.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.benchdiff/*' | \
		xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d; printf "%7d  total\n", t }' | sort -k2

ci: lint build race alloc-gates traffic cluster obs churn churn-cluster snapshots footprint docs bench-smoke benchmark-check fuzz-smoke

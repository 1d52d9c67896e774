package cluster

import (
	"runtime"
	"testing"

	"rtroute/internal/telemetry"
	"rtroute/internal/traffic"
)

// allocGate measures steady-state allocations per roundtrip on the
// channel fabric the way TestClusterZeroAllocsTCP does on the socket
// one: a 20 k and a 60 k zipf serving phase over one 4-partition
// deployment, the difference in whole-process Mallocs — and in the
// per-worker tracked ledger — divided by the 40 k extra roundtrips.
// Everything a run pays once whatever its length (goroutine stacks,
// first slabs, the histogram spine, a sink's construction) cancels, so
// the reading does not depend on how many fabric workers warm up, and
// with that on the host's core count. newSink, when non-nil, attaches a
// fresh sink to every run; the long run's is returned with its result.
func allocGate(t *testing.T, newSink func(Config) *telemetry.Sink) (process, tracked float64, long *Result, sink *telemetry.Sink) {
	t.Helper()
	deps, _ := testDeployments(t, 64, 7)
	dep := deps["stretch6"]
	run := func(packets int64) (*Result, uint64) {
		cfg := Config{
			Shards: 4, Packets: packets,
			Workload: traffic.Spec{Kind: traffic.Zipf, ZipfTheta: 0.9},
			Seed:     5, InFlight: 512, Batch: 64,
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if newSink != nil {
			sink = newSink(cfg)
			cfg.Sink = sink
		}
		res, err := Run(dep, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Packets != packets {
			t.Fatalf("served %d of %d packets", res.Packets, packets)
		}
		return res, after.Mallocs - before.Mallocs
	}
	const short, extra = 20000, 40000
	run(short) // warm-up: runtime pools, the deployment's lazy state
	a, aMallocs := run(short)
	long, bMallocs := run(short + extra)
	process = (float64(bMallocs) - float64(aMallocs)) / extra
	tracked = float64(long.TrackedAllocs-a.TrackedAllocs) / extra
	t.Logf("%d fabric workers: %d mallocs (%d tracked) over %d roundtrips, %d (%d) over %d: %.3f process, %.3f tracked per roundtrip in steady state",
		long.FabricWorkers, aMallocs, a.TrackedAllocs, short, bMallocs, long.TrackedAllocs, short+extra, process, tracked)
	if uint64(long.TrackedAllocs) > bMallocs {
		t.Fatalf("tracked allocs %d exceed process mallocs %d — the ledger overcounts", long.TrackedAllocs, bMallocs)
	}
	return process, tracked, long, sink
}

// TestClusterZeroAllocsPerRoundtrip is the crossing-path allocation
// gate: with flight frames patched in place, recycled frame slabs and
// batched completion tracking, a steady-state roundtrip allocates
// nothing on the serving path — well under one allocation per
// roundtrip, where a single per-crossing allocation would show up as
// one per frame shipped and a single per-roundtrip allocation as 1. The
// per-worker tracked ledger must stay under the same bound and under
// the process-wide count it refines.
func TestClusterZeroAllocsPerRoundtrip(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	process, tracked, _, _ := allocGate(t, nil)
	if process >= 0.25 {
		t.Fatalf("%.3f process allocs per roundtrip in steady state, want amortized zero (< 0.25)", process)
	}
	if tracked >= 0.25 {
		t.Fatalf("%.3f tracked allocs per roundtrip in steady state, want amortized zero (< 0.25)", tracked)
	}
}

// TestClusterZeroAllocsWithSink re-runs the gate with a telemetry sink
// attached at default sampling: the observability plane must not spend
// the allocation budget it exists to audit. Publish copies, sampled
// laps and the heat sketch all reuse per-probe storage, so a sink adds
// no steady-state allocation.
func TestClusterZeroAllocsWithSink(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	process, _, res, sink := allocGate(t, func(cfg Config) *telemetry.Sink {
		shape := cfg.SinkShape()
		shape.TraceEvery = 1024
		return telemetry.New(shape)
	})
	if process >= 0.25 {
		t.Fatalf("%.3f process allocs per roundtrip with sink attached, want < 0.25", process)
	}
	if snap := sink.Snapshot(); snap.Totals.Packets != res.Packets {
		t.Fatalf("sink saw %d packets, run served %d", snap.Totals.Packets, res.Packets)
	}
}

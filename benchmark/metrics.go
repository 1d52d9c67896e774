package main

// metricDef is one row of the benchmark's metric tables.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // allowed worsening as a share of the baseline median (0 = none)
	// On lists the workloads that report the metric; nil means all.
	On []string
	// Moves names the end-to-end number a per-layer metric should
	// move, and on which workload (README.md "Per-layer metrics").
	Moves string
}

// endToEnd are the numbers a user of the system sees on every workload.
// The driver's contract wants each run to report every end-to-end
// metric of BENCHMARK.json, so this table holds only metrics with one
// honest definition on all seven workloads; README.md "Metric glossary"
// says what each reads where. BENCHMARK.json carries the same rows and
// TestBenchmarkJSONInSync holds the two together.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "build_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rt_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "stretch_mean", Unit: "ratio", Better: "lower", Bound: 0.10},
	{Name: "node_bytes_max", Unit: "B", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// workloadOnly are the issue's end-to-end metrics that exist on some
// workloads only (a latency needs a completion clock, a repair needs
// churn). The driver cannot carry them — it wants every metric on every
// workload, never 0 — so they are printed, stored in result sets and
// gated by -compare with the bounds here. fail_ratio's bound is
// absolute, not a share (see verdict).
var workloadOnly = []metricDef{
	{Name: "stretch_max", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "rt_p50_us", Unit: "us", Better: "lower", Bound: 0.25, On: []string{"tcp-s2-w256", "tcp-s2-w1"}},
	{Name: "rt_p99_us", Unit: "us", Better: "lower", Bound: 0.25, On: []string{"tcp-s2-w256", "tcp-s2-w1"}},
	{Name: "fire_rt_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, On: []string{"churn-n512"}},
	{Name: "repair_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: []string{"churn-n512"}},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: failRatioBound},
}

// failRatioBound is the absolute ceiling on failed/attempted.
const failRatioBound = 0.001

// perLayer are the traced run's single-layer numbers, each timed by the
// benchmark around calls into that layer's public functions on inputs
// drawn from the workload being run. They carry no bound.
var perLayer = []metricDef{
	{Name: "graph.allpairs_s", Unit: "s", Better: "lower", Moves: "build_s @ build-1k"},
	{Name: "graph.dijkstra_us", Unit: "us", Better: "lower", Moves: "build_s @ build-1k; repair_ms @ churn-n512"},
	{Name: "graph.lazy_row_us", Unit: "us", Better: "lower", Moves: "repair_ms, setup_s @ churn-n512"},
	{Name: "graph.edgebyport_ns", Unit: "ns", Better: "lower", Moves: "rt_per_s @ mono-zipf, mono-uniform-1k"},
	{Name: "rtmetric.space_s", Unit: "s", Better: "lower", Moves: "build_s @ build-1k"},
	{Name: "rtz.build_s", Unit: "s", Better: "lower", Moves: "build_s @ build-1k; setup_s elsewhere"},
	{Name: "blocks.assign_s", Unit: "s", Better: "lower", Moves: "build_s @ build-1k"},
	{Name: "cover.hierarchy_s", Unit: "s", Better: "lower", Moves: "build_s @ build-1k (ExStretch + Polynomial share)"},
	{Name: "core.build_s6_s", Unit: "s", Better: "lower", Moves: "build_s @ build-1k"},
	{Name: "core.build_ex_s", Unit: "s", Better: "lower", Moves: "build_s @ build-1k"},
	{Name: "core.build_poly_s", Unit: "s", Better: "lower", Moves: "build_s @ build-1k"},
	{Name: "core.deploy_ms", Unit: "ms", Better: "lower", Moves: "setup_s @ chan-s8-zipf, tcp-s2-*"},
	{Name: "core.rebuild_nodes_ms", Unit: "ms", Better: "lower", Moves: "repair_ms, fire_rt_per_s @ churn-n512"},
	{Name: "core.rebuild_owned_ms", Unit: "ms", Better: "lower", Moves: "repair_ms @ churn-n512"},
	{Name: "sim.hop_ns", Unit: "ns", Better: "lower", Moves: "rt_per_s @ every serving workload"},
	{Name: "sim.rt_ns", Unit: "ns", Better: "lower", Moves: "rt_per_s @ mono-*"},
	{Name: "sim.rt_dep_ns", Unit: "ns", Better: "lower", Moves: "rt_per_s @ chan-s8-zipf, tcp-s2-*; floor of rt_p50_us @ tcp-s2-w1"},
	{Name: "traffic.compile_ms", Unit: "ms", Better: "lower", Moves: "setup_s @ mono-*"},
	{Name: "traffic.gen_ns", Unit: "ns", Better: "lower", Moves: "rt_per_s @ mono-*, chan-s8-zipf"},
	{Name: "traffic.w1_ns_per_rt", Unit: "ns", Better: "lower", Moves: "rt_per_s @ mono-*"},
	{Name: "traffic.scale", Unit: "ratio", Better: "higher", Moves: "rt_per_s @ mono-*"},
	{Name: "wire.marshal_ms", Unit: "ms", Better: "lower", Moves: "build_s @ build-1k"},
	{Name: "wire.unmarshal_ms", Unit: "ms", Better: "lower", Moves: "setup_s @ chan-s8-zipf, tcp-s2-*"},
	{Name: "wire.snapshot_bytes", Unit: "B", Better: "lower", Moves: "build_s @ build-1k; setup_s @ tcp-s2-*"},
	{Name: "wire.flight_encode_ns", Unit: "ns", Better: "lower", Moves: "rt_per_s @ chan-s8-zipf, tcp-s2-w256"},
	{Name: "wire.flight_decode_ns", Unit: "ns", Better: "lower", Moves: "rt_per_s @ chan-s8-zipf, tcp-s2-w256"},
	{Name: "wire.flight_repatch_ns", Unit: "ns", Better: "lower", Moves: "rt_per_s @ chan-s8-zipf, tcp-s2-w256"},
	{Name: "wire.flight_bytes", Unit: "B", Better: "lower", Moves: "rt_per_s @ tcp-s2-w256"},
	{Name: "cluster.placement_ms", Unit: "ms", Better: "lower", Moves: "setup_s @ chan-s8-zipf, tcp-s2-*"},
	{Name: "cluster.crossings_per_rt", Unit: "count", Better: "lower", Moves: "rt_per_s @ chan-s8-zipf, tcp-s2-w256"},
	{Name: "cluster.allocs_per_rt", Unit: "count", Better: "lower", Moves: "rt_per_s @ chan-s8-zipf"},
	{Name: "cluster.window_occupancy", Unit: "count", Better: "higher", Moves: "rt_per_s @ chan-s8-zipf"},
	{Name: "cluster.s1_ns_per_rt", Unit: "ns", Better: "lower", Moves: "rt_per_s @ chan-s8-zipf, tcp-s2-*"},
	{Name: "cluster.loop_fixed_ns", Unit: "ns", Better: "lower", Moves: "rt_per_s @ chan-s8-zipf, tcp-s2-*"},
	{Name: "cluster.window_ns", Unit: "ns", Better: "lower", Moves: "rt_per_s @ chan-s8-zipf"},
	{Name: "cluster.chan_xfer_ns", Unit: "ns", Better: "lower", Moves: "rt_per_s @ chan-s8-zipf only"},
	{Name: "cluster.tcp_xfer_us", Unit: "us", Better: "lower", Moves: "rt_p50_us @ tcp-s2-w1"},
	{Name: "cluster.tcp_batch_ns", Unit: "ns", Better: "lower", Moves: "rt_per_s @ tcp-s2-w256"},
	{Name: "cluster.tcp_w1_p50_us", Unit: "us", Better: "lower", Moves: "rt_p50_us @ tcp-s2-w1"},
	{Name: "churn.apply_us", Unit: "us", Better: "lower", Moves: "repair_ms @ churn-n512"},
	{Name: "churn.probe_us", Unit: "us", Better: "lower", Moves: "repair_ms @ churn-n512"},
	{Name: "churn.dirty_frac", Unit: "ratio", Better: "lower", Moves: "repair_ms @ churn-n512"},
	{Name: "churn.repair_ms", Unit: "ms", Better: "lower", Moves: "fire_rt_per_s @ churn-n512"},
	{Name: "telemetry.sink_overhead", Unit: "ratio", Better: "lower", Moves: "rt_per_s @ tcp-s2-*"},
	{Name: "budget.mono", Unit: "ratio", Better: "higher"},
	{Name: "budget.chan", Unit: "ratio", Better: "higher"},
	{Name: "budget.tcp_w1", Unit: "ratio", Better: "higher"},
	{Name: "budget.build", Unit: "ratio", Better: "higher"},
	{Name: "budget.repair", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower"},
}

// budgetLo and budgetHi are the stated tolerance of the layer budget: a
// budget.* row is the sum of layer costs times their counts per
// operation over the measured end-to-end cost per operation, and a row
// outside [budgetLo, budgetHi] is flagged — the layers named do not
// explain the end-to-end figure.
const (
	budgetLo = 0.7
	budgetHi = 1.3
)

// reports says whether workload w carries metric d.
func (d metricDef) reports(w string) bool {
	if d.On == nil {
		return true
	}
	for _, name := range d.On {
		if name == w {
			return true
		}
	}
	return false
}

// bounded lists every metric that carries a bound: the driver's, then
// the workload-only rows.
func bounded() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), workloadOnly...)
}

// findMetric looks a name up across the bounded tables.
func findMetric(name string) (metricDef, bool) {
	for _, d := range bounded() {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// TestQuartileSpreadMatchesPython pins the acceptance figure to
// statistics.quantiles(xs, n=4) (exclusive method), the way the driver
// computes it.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// >>> statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// >>> statistics.quantiles([1.0, 1.5, 4.0, 4.5, 9.0], n=4) -> [1.25, 4.0, 6.75]
	if got, want := quartileSpread([]float64{4.5, 1.0, 9.0, 1.5, 4.0}), (6.75-1.25)/4.0; !near(got, want) {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// >>> statistics.quantiles([2, 4], n=4) -> [1.5, 3.0, 4.5]: the cut
	// points extrapolate past a two-value sample's ends.
	if got, want := quartileSpread([]float64{2, 4}), (4.5-1.5)/3.0; !near(got, want) {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

// TestPooledPercentile locks the nearest-rank percentile and the rule
// that a tail percentile is reported only with at least ten samples
// beyond it.
func TestPooledPercentile(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{50: 50, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(sorted, q); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
	for _, c := range []struct {
		samples int
		want    float64
	}{
		{99, 50},      // p90 would leave 9.9 beyond
		{100, 90},     // exactly ten beyond p90
		{199, 90},     // p95 would leave 9.95
		{200, 95},     //
		{999, 95},     // p99 would leave 9.99
		{1000, 99},    // exactly ten beyond p99
		{9999, 99},    //
		{10000, 99.9}, //
	} {
		if got := highestPercentile(c.samples); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.samples, got, c.want)
		}
	}
}

// TestSlotLatencies reconstructs latency on a synthetic completion
// order: window 2, four pairs, completions out of order. Pair k >= 2 is
// due when completion number k-2 (in completion order) freed its slot.
func TestSlotLatencies(t *testing.T) {
	order := []int32{1, 0, 3, 2} // pair 1 completes first, then 0, 3, 2
	at := []int64{100, 150, 400, 420}
	got := slotLatencies(10, order, at, 2)
	want := []int64{
		150 - 10,  // pair 0: due at the start, done second
		100 - 10,  // pair 1: due at the start, done first
		420 - 100, // pair 2: due when the first completion (t=100) opened a slot, done last
		400 - 150, // pair 3: due at the second completion (t=150), done third
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("latency of pair %d = %d, want %d (all %v)", k, got[k], want[k], got)
		}
	}
	// Window 1 degenerates to back-to-back service times.
	got = slotLatencies(0, []int32{0, 1, 2}, []int64{5, 12, 30}, 1)
	for k, want := range []int64{5, 7, 18} {
		if got[k] != want {
			t.Errorf("window 1: latency of pair %d = %d, want %d", k, got[k], want)
		}
	}
}

// TestSpanSelfTime checks self time with children that overlap one
// another and stick out of the parent.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},    // overlaps a on [30,40]
		{Name: "c", Start: 90, End: 120, Parent: 0},   // sticks out past the parent
		{Name: "leaf", Start: 12, End: 20, Parent: 1}, // grandchild: only a's business
	}
	got := selfTimes(spans)
	// parent: 100 - ([10,60] = 50) - ([90,100] = 10) = 40.
	for i, want := range []int64{40, 30 - 8, 30, 30, 8} {
		if got[i] != want {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want)
		}
	}
	names, selfNs, calls := selfByName(append(spans, span{Name: "a", Start: 200, End: 205, Parent: -1}))
	if len(names) != 5 || selfNs["a"] != 22+5 || calls["a"] != 2 {
		t.Errorf("selfByName: names %v, a self %d over %d calls", names, selfNs["a"], calls["a"])
	}
}

func TestTracerNestingAndChromeFile(t *testing.T) {
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("free when untraced"))

	tr := newTracer("w")
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	sibling := tr.begin("sibling")
	tr.end(sibling)
	tr.end(outer)
	if tr.spans[inner].Parent != outer || tr.spans[sibling].Parent != outer || tr.spans[outer].Parent != -1 {
		t.Fatalf("parents: %+v", tr.spans)
	}
	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("trace file does not load: %v", err)
	}
	if len(file.TraceEvents) != 3 || file.TraceEvents[0].Ph != "X" || file.TraceEvents[1].Args["parent"] != float64(outer) {
		t.Errorf("trace events: %+v", file.TraceEvents)
	}
}

func TestScaled(t *testing.T) {
	// A host at 0.8 of reference speed: a 10 s reading is 8 reference
	// seconds, 800 rt/s is 1000 at reference speed, sizes pass through.
	for _, c := range []struct {
		name    string
		v, want float64
	}{
		{"build_s", 10, 8},
		{"repair_ms", 50, 40},
		{"rt_p50_us", 100, 80},
		{"rt_per_s", 800, 1000},
		{"node_bytes_max", 4096, 4096},
		{"stretch_mean", 1.5, 1.5},
		{"peak_rss_mb", 100, 100},
	} {
		d, ok := findMetric(c.name)
		if !ok {
			t.Fatalf("no metric %s", c.name)
		}
		if got := scaled(d, c.v, 0.8); !near(got, c.want) {
			t.Errorf("scaled(%s, %v, 0.8) = %v, want %v", c.name, c.v, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	rate := metricDef{Name: "rt_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	secs := metricDef{Name: "build_s", Unit: "s", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	for _, c := range []struct {
		what string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", rate, steady, steady, "ok"},
		{"rate down 5%", rate, steady, shift(steady, 0.95), "ok"},
		{"rate down 15%", rate, steady, shift(steady, 0.85), "worse"},
		{"rate up 15%", rate, steady, shift(steady, 1.15), "ok"},
		{"time up 15%", secs, steady, shift(steady, 1.15), "worse"},
		{"time down 15%", secs, steady, shift(steady, 0.85), "ok"},
		{"noisy side", rate, steady, []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}, "unresolved"},
		{"noisy but every run better", secs, []float64{200, 300, 260, 340, 220, 280}, []float64{100, 101, 99, 100, 102, 98}, "ok"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.what, got, c.want)
		}
	}
	fail, _ := findMetric("fail_ratio")
	if _, got := verdict(fail, []float64{0}, []float64{0.0004}); got != "ok" {
		t.Errorf("fail_ratio under its absolute ceiling: %q", got)
	}
	if _, got := verdict(fail, []float64{0}, []float64{0.002}); got != "worse" {
		t.Errorf("fail_ratio over its absolute ceiling: %q", got)
	}
}

// TestBenchmarkJSONInSync holds the root BENCHMARK.json and the tables
// in this package together, and to the limits of the driver's schema.
func TestBenchmarkJSONInSync(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name, Why, Unit, Better string
		Bound                   *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []row
		EndToEnd   []row `json:"end_to_end"`
		PerLayer   []row `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths %v", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the table %q / %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	check := func(what string, rows []row, defs []metricDef, bounded bool) {
		if len(rows) != len(defs) {
			t.Fatalf("%s: %d rows in BENCHMARK.json, %d here", what, len(rows), len(defs))
		}
		for i, d := range defs {
			got := rows[i]
			if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the table %+v", what, i, got, d)
			}
			if bounded != (got.Bound != nil) || (bounded && (*got.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v vs %v", what, d.Name, got.Bound, d.Bound)
			}
			if len(d.Name) > 64 || len(d.Unit) > 16 {
				t.Errorf("%s %s: name or unit too long", what, d.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json outgrew the schema's limits")
	}
	seen := map[string]bool{}
	for _, d := range append(bounded(), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmokeEveryWorkload runs every workload at toy size — n=64, a few
// thousand roundtrips, two churn batches — untraced and traced, with
// every correctness check on, so a change to an API the benchmark calls
// breaks here and not in the next capture.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, wl := range workloads {
		toy := wl.shrunk()
		t.Run(wl.name, func(t *testing.T) {
			rep, err := runOne(toy, 5, 0.1, "0", io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("correct %v, %d of %d failed: %v", rep.Correct, rep.Failed, rep.Attempted, rep.Failures)
			}
			for _, d := range endToEnd {
				if mv, ok := rep.Metrics[d.Name]; !ok || !(mv.Value > 0) || mv.Unit != d.Unit {
					t.Errorf("%s = %+v: every end-to-end metric must be reported and never 0", d.Name, mv)
				}
			}
			for _, d := range workloadOnly {
				if _, ok := rep.Detail[d.Name]; ok != d.reports(wl.name) {
					t.Errorf("%s reported %v on %s", d.Name, ok, wl.name)
				}
			}
			if s := rep.Detail["stretch_max"].Value; s < 1 || s > stretchBound {
				t.Errorf("stretch_max %v outside [1, %g]", s, stretchBound)
			}
			var out bytes.Buffer
			if err := rep.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   *bool
				Attempted *int64
				Failed    *int64
				Metrics   map[string]struct {
					Value *float64
					Unit  *string
				}
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("last line is not the driver's result: %v", err)
			}
			if last.Correct == nil || last.Attempted == nil || last.Failed == nil || len(last.Metrics) != len(endToEnd) {
				t.Errorf("result line: %s", lines[len(lines)-1])
			}
			if back, err := lastReport(out.Bytes()); err != nil || back.Workload != wl.name {
				t.Errorf("full report does not survive the round trip: %v", err)
			}
		})
		t.Run(wl.name+"/traced", func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace.json")
			rep, err := runOne(toy, 5, 0.1, path, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Errorf("failures: %v", rep.Failures)
			}
			if len(rep.Metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics reported, want %d", len(rep.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if v := rep.Metrics[d.Name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", d.Name, v)
				}
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

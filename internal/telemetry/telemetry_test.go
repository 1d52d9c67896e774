package telemetry

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestNilSinkIsOff locks the off switch: a nil *Sink hands out nil
// probes, and every method on both is a no-op — the whole plane must
// be callable unconditionally from the hot path.
func TestNilSinkIsOff(t *testing.T) {
	var s *Sink
	if p := s.Probe(0); p != nil {
		t.Fatal("nil sink handed out a probe")
	}
	if p := s.InjectorProbe(0); p != nil {
		t.Fatal("nil sink handed out an injector probe")
	}
	if s.Tracing() || s.SampleEvery() != 0 || s.UptimeNs() != 0 {
		t.Fatal("nil sink reports live state")
	}
	s.RegisterGauge("x", func() float64 { return 1 })
	if snap := s.Snapshot(); snap != nil {
		t.Fatal("nil sink produced a snapshot")
	}
	if evs := s.Events(0); evs != nil {
		t.Fatal("nil sink produced events")
	}

	var p *Probe
	if t0 := p.BatchStart(0); t0 != 0 {
		t.Fatal("nil probe armed a lap chain")
	}
	if now := p.Lap(StageRoute, 123); now != 0 {
		t.Fatal("nil probe lap returned non-zero")
	}
	p.Heat(1)
	p.Publish(Counters{Packets: 1})
	p.Record(EvHop, 1, 0, 0, -1, 1, false)
	if p.Traced(1) {
		t.Fatal("nil probe claims tracing")
	}
	if p.Now() != 0 {
		t.Fatal("nil probe has a clock")
	}
}

// TestProbeShape locks probe indexing: shard rows follow Config.Shards
// order, out-of-shape indices return nil rather than panicking, and a
// config asking for a worker pool is refused.
func TestProbeShape(t *testing.T) {
	s := New(Config{Shards: []int{3, 7}, Injectors: 1})
	if s.Probe(0) == nil || s.Probe(1) == nil || s.InjectorProbe(0) == nil {
		t.Fatal("in-shape probe missing")
	}
	if s.Probe(2) != nil || s.Probe(-1) != nil || s.InjectorProbe(1) != nil {
		t.Fatal("out-of-shape index returned a probe")
	}
	if s.Probe(0) == s.Probe(1) {
		t.Fatal("distinct shard rows share a probe")
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Config.Workers is 2") {
			t.Fatalf("New with Workers 2 recovered %v, want a panic naming the field", r)
		}
	}()
	New(Config{Shards: []int{0}, Workers: 2})
}

// TestBatchSampling locks the sampling contract: with SampleEvery = k,
// exactly one batch in k arms the lap chain (phase k-1, skipping the
// cold start), unsampled batches flow a zero t through Lap for free,
// and the snapshot's EstNs scales sampled time by the batch count.
func TestBatchSampling(t *testing.T) {
	s := New(Config{Shards: []int{0}, SampleEvery: 4})
	p := s.Probe(0)
	sampled := 0
	for i := 0; i < 16; i++ {
		if t0 := p.BatchStart(0); t0 != 0 {
			sampled++
			if i%4 != 3 {
				t.Fatalf("batch %d sampled; want phase 3 of 4", i)
			}
			t0 = p.Lap(StageRoute, t0)
			if t0 == 0 {
				t.Fatal("lap broke the chain on a sampled batch")
			}
		} else if next := p.Lap(StageRoute, 0); next != 0 {
			t.Fatal("zero t0 did not flow through Lap")
		}
	}
	if sampled != 4 {
		t.Fatalf("sampled %d of 16 batches at stride 4, want 4", sampled)
	}
	p.Publish(Counters{Packets: 16})
	snap := s.Snapshot()
	sh := snap.Shards[0]
	if sh.Batches != 16 || sh.SampledBatches != 4 {
		t.Fatalf("snapshot counted %d batches / %d sampled, want 16 / 4", sh.Batches, sh.SampledBatches)
	}
	for _, st := range sh.Stages {
		if st.Stage != "route" {
			continue
		}
		// EstNs = SampledNs * batches/sampled = SampledNs * 4.
		if st.SampledNs > 0 && (st.EstNs < 3*st.SampledNs || st.EstNs > 5*st.SampledNs) {
			t.Fatalf("EstNs %d not ~4x SampledNs %d", st.EstNs, st.SampledNs)
		}
	}
}

// TestPublishSnapshotExactness locks the design contract that makes
// /metrics trustworthy: the snapshot reproduces the exact counter
// struct each worker last published — no probe-side accumulation that
// could drift from the engine's own stats.
func TestPublishSnapshotExactness(t *testing.T) {
	s := New(Config{Shards: []int{0, 1}, Injectors: 1})
	want0 := Counters{Packets: 10, Hops: 100, Weight: 500, FramesIn: 7, FramesOut: 7, Errors: 1, Allocs: 2}
	want1 := Counters{Packets: 20, Hops: 50, Weight: 900}
	s.Probe(0).Publish(Counters{Packets: 3}) // overwritten by the next publish
	s.Probe(0).Publish(want0)
	s.Probe(1).Publish(want1)
	s.InjectorProbe(0).Publish(Counters{Injects: 30, Allocs: 4})
	snap := s.Snapshot()
	if snap.Shards[0].Counters != want0 {
		t.Fatalf("shard 0 counters %+v, want %+v", snap.Shards[0].Counters, want0)
	}
	if snap.Shards[1].Counters != want1 {
		t.Fatalf("shard 1 counters %+v, want %+v", snap.Shards[1].Counters, want1)
	}
	if snap.Injectors == nil || snap.Injectors.Injects != 30 {
		t.Fatal("injector publish lost")
	}
	if snap.Totals.Packets != 30 || snap.Totals.Injects != 30 || snap.Totals.Allocs != 6 {
		t.Fatalf("totals %+v", snap.Totals)
	}
}

// TestSnapshotSub locks the diff: counters and batches subtract per
// shard id, so a poller can turn two absolute snapshots into the
// activity between them.
func TestSnapshotSub(t *testing.T) {
	s := New(Config{Shards: []int{0}, Injectors: 1})
	s.Probe(0).Publish(Counters{Packets: 10, Hops: 40})
	s.InjectorProbe(0).Publish(Counters{Injects: 12})
	prev := s.Snapshot()
	s.Probe(0).Publish(Counters{Packets: 25, Hops: 110})
	s.InjectorProbe(0).Publish(Counters{Injects: 27})
	diff := s.Snapshot().Sub(prev)
	if diff.Shards[0].Packets != 15 || diff.Shards[0].Hops != 70 {
		t.Fatalf("diff shard counters %+v, want packets 15 hops 70", diff.Shards[0].Counters)
	}
	if diff.Injectors.Injects != 15 {
		t.Fatalf("diff injects %d, want 15", diff.Injectors.Injects)
	}
	if diff.Totals.Packets != 15 {
		t.Fatalf("diff totals %+v", diff.Totals)
	}
	if diff.UptimeNs < 0 {
		t.Fatal("diff uptime negative")
	}
}

// TestHeatSketch locks the space-saving top-K: heavy destinations
// survive eviction, and the published list is sorted by estimated
// count.
func TestHeatSketch(t *testing.T) {
	s := New(Config{Shards: []int{0}, HeatK: 4})
	p := s.Probe(0)
	for i := 0; i < 100; i++ {
		p.Heat(7) // the heavy hitter
		if i%2 == 0 {
			p.Heat(7) // half as heavy again
		}
		p.Heat(int32(100 + i%17)) // churn that must not evict dst 7
		p.Heat(int32(200 + i%13))
	}
	p.Publish(Counters{})
	heat := s.Snapshot().Shards[0].Heat
	if len(heat) == 0 || len(heat) > 4 {
		t.Fatalf("merged heat has %d entries, want 1..4", len(heat))
	}
	if heat[0].Dst != 7 {
		t.Fatalf("top destination %d, want 7", heat[0].Dst)
	}
	// Space-saving guarantee: estimate >= true count, and the error
	// bound is tracked per entry.
	if heat[0].Count < 150 {
		t.Fatalf("dst 7 estimated %d, true count 150; space-saving must not undercount", heat[0].Count)
	}
	for i := 1; i < len(heat); i++ {
		if heat[i].Count > heat[i-1].Count {
			t.Fatal("merged heat not sorted by count")
		}
	}
}

// TestRecorder locks the flight recorder: the trace predicate, ring
// wrap (oldest events overwritten, newest kept), rt filtering, and the
// merged timeline's time order.
func TestRecorder(t *testing.T) {
	s := New(Config{Shards: []int{0}, TraceEvery: 8, RingSize: 4})
	p := s.Probe(0)
	for rt, want := range map[uint64]bool{0: false, 1: true, 8: false, 9: true, 17: true} {
		if got := p.Traced(rt); got != want {
			t.Fatalf("Traced(%d) = %v, want %v", rt, got, want)
		}
	}
	for i := 0; i < 6; i++ {
		p.Record(EvHop, 1, 0, int32(i), -1, int32(i), false)
	}
	evs := s.Events(1)
	if len(evs) != 4 {
		t.Fatalf("ring of 4 kept %d events", len(evs))
	}
	if evs[0].At != 2 || evs[3].At != 5 {
		t.Fatalf("ring kept events at %d..%d, want newest 2..5", evs[0].At, evs[3].At)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Ns < evs[i-1].Ns {
			t.Fatal("merged events out of time order")
		}
	}
	// A seventh record wraps once more: the ring now holds hops 3..5
	// plus the complete.
	p.Record(EvComplete, 9, 0, 0, -1, 3, true)
	if got := len(s.Events(9)); got != 1 {
		t.Fatalf("rt filter returned %d events, want 1", got)
	}
	if got := len(s.Events(0)); got != 4 {
		t.Fatalf("unfiltered merge returned %d events, want 4", got)
	}
}

// TestTracingDisabled locks the zero-config behavior: without
// TraceEvery nothing is traced and nothing is recorded.
func TestTracingDisabled(t *testing.T) {
	s := New(Config{Shards: []int{0}})
	if s.Tracing() {
		t.Fatal("sink without TraceEvery claims tracing")
	}
	p := s.Probe(0)
	if p.Traced(1) {
		t.Fatal("probe without TraceEvery traced rt 1")
	}
	p.Record(EvHop, 1, 0, 0, -1, 0, false) // must not panic on the empty ring
	if evs := s.Events(0); len(evs) != 0 {
		t.Fatalf("recorded %d events with tracing off", len(evs))
	}
}

// TestEventJSONRoundtrip locks the wire shape rtroute -trace consumes:
// events marshal with the kind as its name and unmarshal back.
func TestEventJSONRoundtrip(t *testing.T) {
	in := []Event{
		{Ns: 10, Rt: 1, Kind: EvInject, Shard: 0, At: 3, Arg: -1},
		{Ns: 20, Rt: 1, Kind: EvDepart, Shard: 0, At: 5, Arg: 1, Hops: 2},
		{Ns: 30, Rt: 1, Kind: EvComplete, Shard: 1, At: 3, Arg: -1, Hops: 6, Return: true},
	}
	data, err := EventsJSON(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []Event
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("roundtrip lost events: %d != %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("event %d roundtripped to %+v, want %+v", i, out[i], in[i])
		}
	}
	if !strings.Contains(string(data), `"ev": "depart"`) {
		t.Fatalf("kind not encoded by name:\n%s", data)
	}
}

// TestChromeTrace locks the trace_event export: valid JSON with one
// instant event per record, pid = shard, ts in microseconds.
func TestChromeTrace(t *testing.T) {
	data, err := ChromeTrace([]Event{{Ns: 2500, Rt: 1, Kind: EvHop, Shard: 3, At: 9}})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int32   `json:"pid"`
			Tid  int32   `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 1 {
		t.Fatalf("%d trace events, want 1", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[0]
	if ev.Ph != "i" || ev.Pid != 3 || ev.Tid != 0 || ev.Ts != 2.5 {
		t.Fatalf("chrome event %+v", ev)
	}
	if !strings.Contains(ev.Name, "hop") {
		t.Fatalf("event name %q misses the kind", ev.Name)
	}
}

// TestStageTable locks the cost decomposition: busy rows first sorted
// hottest-first, wait rows (credit-wait, synthetic recv-wait) reported
// but excluded from the busy sum, and the coverage line set against the
// CPU time the wall time gives the goroutines that were summed.
func TestStageTable(t *testing.T) {
	snap := &Snapshot{
		Shards: []ShardSnap{{
			Shard:      0,
			Counters:   Counters{Packets: 100},
			RecvWaitNs: 5000,
			Stages: []StageSnap{
				{Stage: "route", EstNs: 40000, MaxNs: 900, P50Ns: 300},
				{Stage: "decode", EstNs: 10000, MaxNs: 200, P50Ns: 80},
				{Stage: "credit-wait", Wait: true, EstNs: 90000},
			},
		}},
		Totals: Counters{Packets: 100},
		probes: 1,
	}
	rows := snap.StageTable(0)
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4 (route, decode, credit-wait, recv-wait)", len(rows))
	}
	if rows[0].Stage != "route" || rows[1].Stage != "decode" {
		t.Fatalf("busy rows out of order: %s, %s", rows[0].Stage, rows[1].Stage)
	}
	if !rows[2].Wait || !rows[3].Wait {
		t.Fatal("wait rows not last")
	}
	if got := BusySum(rows); got != 500 {
		t.Fatalf("busy sum %f ns/rt, want 500 (40000+10000 over 100 packets)", got)
	}
	out := snap.FormatStageTable(0, 600)
	for _, want := range []string{"route", "decode", "credit-wait", "recv-wait", "busy sum", "x 1 cpus", "coverage 83.3%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted table misses %q:\n%s", want, out)
		}
	}
	// Two workers on two cores finish the same 500 busy ns per roundtrip
	// in half the wall time: still 83.3% of the CPU time there was, not
	// 166.7% of the wall. A third worker without a third core adds none.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for snap.probes = 2; snap.probes <= 3; snap.probes++ {
		if out := snap.FormatStageTable(0, 300); !strings.Contains(out, "x 2 cpus  coverage 83.3%") {
			t.Fatalf("%d workers at GOMAXPROCS=2: coverage line is not per available cpu:\n%s", snap.probes, out)
		}
	}
	// The count travels with the snapshot: every shard and injector the
	// sink merged, carried through Sub; nothing timed, nothing printed.
	sink := New(Config{Shards: []int{3, 7}, Injectors: 1})
	if got := sink.Snapshot().Sub(sink.Snapshot()).probes; got != 3 {
		t.Fatalf("snapshot of 2 shards + 1 injector counts %d goroutines, want 3", got)
	}
	if out := sink.Snapshot().FormatStageTable(0, 300); out != "" {
		t.Fatalf("a snapshot with no timed stage formats as %q, want nothing", out)
	}
}

// TestPrometheus locks the scrape format: counter families labeled by
// shard, stage estimates, gauges sanitized (a gauge's own label set
// passed through, its family typed once), uptime present.
func TestPrometheus(t *testing.T) {
	s := New(Config{Shards: []int{2}, Injectors: 1})
	s.Probe(0).Publish(Counters{Packets: 42, Hops: 99})
	s.InjectorProbe(0).Publish(Counters{Injects: 42})
	s.RegisterGauge("Window Occupancy", func() float64 { return 3.5 })
	s.RegisterGauge(`repair_stage_ns{stage="tables"}`, func() float64 { return 7 })
	s.RegisterGauge(`repair_stage_ns{stage="assign"}`, func() float64 { return 5 })
	text := string(Prometheus(s.Snapshot()))
	if got := strings.Count(text, "# TYPE rtroute_repair_stage_ns gauge"); got != 1 {
		t.Fatalf("labeled gauge family typed %d times, want once:\n%s", got, text)
	}
	for _, want := range []string{
		`rtroute_packets_total{shard="2"} 42`,
		`rtroute_hops_total{shard="2"} 99`,
		`rtroute_injects_total{shard="injectors"} 42`,
		"rtroute_window_occupancy 3.5",
		`rtroute_repair_stage_ns{stage="assign"} 5`,
		`rtroute_repair_stage_ns{stage="tables"} 7`,
		"rtroute_uptime_seconds",
		"# TYPE rtroute_packets_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output misses %q:\n%s", want, text)
		}
	}
}

// TestGauges locks gauge registration and snapshot reads.
func TestGauges(t *testing.T) {
	s := New(Config{Shards: []int{0}})
	v := 1.0
	s.RegisterGauge("x", func() float64 { return v })
	v = 2.5
	snap := s.Snapshot()
	if len(snap.Gauges) != 1 || snap.Gauges[0].Name != "x" || snap.Gauges[0].Value != 2.5 {
		t.Fatalf("gauges %+v", snap.Gauges)
	}
}

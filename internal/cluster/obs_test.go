package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rtroute/internal/telemetry"
	"rtroute/internal/traffic"
)

// TestWindowOccupancy locks the credit window's arithmetic: bulk Take
// capped at availability, Put sampling occupancy as size minus credits
// after return, Occupancy as the mean of those samples, and Take
// yielding 0 once done closes.
func TestWindowOccupancy(t *testing.T) {
	w := NewWindow(4)
	done := make(chan struct{})
	if w.Size() != 4 {
		t.Fatalf("Size() = %d, want 4", w.Size())
	}
	if got := w.Take(2, done); got != 2 {
		t.Fatalf("Take(2) = %d, want 2", got)
	}
	if got := w.Occupancy(); got != 0 {
		t.Fatalf("Occupancy before any Put = %f, want 0", got)
	}
	// Two in flight, one completes: 3 credits back in the window, so
	// the sample is 1. The second completion samples 0.
	w.Put(1)
	w.Put(1)
	if got := w.Occupancy(); got != 0.5 {
		t.Fatalf("Occupancy = %f, want 0.5 (samples 1 and 0)", got)
	}
	// Bulk Take never over-claims: a burst of 10 gets what is there.
	if got := w.Take(10, done); got != 4 {
		t.Fatalf("Take(10) on a full window of 4 = %d, want 4", got)
	}
	close(done)
	if got := w.Take(1, done); got != 0 {
		t.Fatalf("Take on an empty window with done closed = %d, want 0 (shutdown)", got)
	}
}

// TestWindowConcurrent exercises the window's atomics under the race
// detector: takers and putters on all sides, credits conserved.
func TestWindowConcurrent(t *testing.T) {
	const (
		size  = 8
		procs = 4
		iters = 2000
	)
	w := NewWindow(size)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n := w.Take(3, done)
				if n == 0 {
					t.Error("Take returned 0 without shutdown")
					return
				}
				w.Put(n)
			}
		}()
	}
	wg.Wait()
	if got := w.Take(size, done); got != size {
		t.Fatalf("after balanced Take/Put, %d credits available, want %d", got, size)
	}
	// On a single-core host the goroutines may serialize perfectly
	// (every Put refills the window), so 0 is a legal mean; only the
	// upper bound is guaranteed.
	if occ := w.Occupancy(); occ < 0 || occ > size {
		t.Fatalf("Occupancy = %f, want in [0, %d]", occ, size)
	}
}

// TestClusterLiveSnapshot runs the in-process cluster with a sink
// attached and a poller hammering Snapshot/Sub concurrently with the
// serving loop — the -race certification that live reads never tear —
// then pins the end-of-run contract: the final snapshot's counters
// equal the engine's own Result, shard by shard and in total, because
// shards publish copies of the same stats structs the Result merges.
func TestClusterLiveSnapshot(t *testing.T) {
	deps, _ := testDeployments(t, 64, 7)
	dep := deps["stretch6"]
	cfg := Config{
		Shards: 4, Packets: 10000,
		Workload: traffic.Spec{Kind: traffic.Zipf, ZipfTheta: 0.9},
		Seed:     5, InFlight: 256, Batch: 64,
	}
	shape := cfg.SinkShape()
	shape.TraceEvery = 64 // recorder on, so traced frames race the poller too
	sink := telemetry.New(shape)
	cfg.Sink = sink

	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		var prev *telemetry.Snapshot
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := sink.Snapshot()
			if diff := snap.Sub(prev); diff.Totals.Packets < 0 {
				t.Error("snapshot diff went backwards")
				return
			}
			sink.Events(0)
			prev = snap
		}
	}()

	res, err := Run(dep, cfg)
	close(stop)
	pollWG.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != cfg.Packets {
		t.Fatalf("served %d of %d packets", res.Packets, cfg.Packets)
	}

	// Shards publish once more on exit, so the final snapshot is exact.
	snap := sink.Snapshot()
	if snap.Totals.Packets != res.Packets || snap.Totals.Hops != res.Hops || snap.Totals.Weight != res.Weight {
		t.Fatalf("snapshot totals (%d pkts, %d hops, %d weight) != result (%d, %d, %d)",
			snap.Totals.Packets, snap.Totals.Hops, snap.Totals.Weight, res.Packets, res.Hops, res.Weight)
	}
	if snap.Injectors == nil || snap.Injectors.Injects != res.Packets {
		t.Fatalf("injector snapshot %+v, want %d injects", snap.Injectors, res.Packets)
	}
	if snap.Totals.Allocs != res.TrackedAllocs {
		t.Fatalf("snapshot allocs %d != result tracked allocs %d", snap.Totals.Allocs, res.TrackedAllocs)
	}
	for i, st := range res.PerShard {
		got := snap.Shards[i]
		want := telemetry.Counters{
			Packets: st.Packets, Hops: st.Hops, Weight: st.Weight,
			FramesIn: st.FramesIn, FramesOut: st.FramesOut,
			Errors: st.Errors, Allocs: st.Allocs,
		}
		if got.Counters != want {
			t.Fatalf("shard %d snapshot %+v != result stats %+v", i, got.Counters, want)
		}
		if got.Batches <= 0 {
			t.Fatalf("shard %d published no batches", i)
		}
	}
	// Run registers the window gauges on the sink it was handed.
	var sawSize bool
	for _, g := range snap.Gauges {
		if g.Name == "window_size" {
			sawSize = true
			if g.Value != float64(res.InFlight) {
				t.Fatalf("window_size gauge %f, want %d", g.Value, res.InFlight)
			}
		}
	}
	if !sawSize {
		t.Fatalf("window_size gauge not registered; gauges: %+v", snap.Gauges)
	}
}

// TestRunRefusesMismatchedSink pins the shape contract: a sink without
// exactly one probe per serving goroutine hands out nil probes — the off
// switch — so a run that accepted it would leave shards unobserved and
// divide the stage table's coverage by the wrong goroutine count. Run
// refuses it with both shapes in the error; the partition count is not a
// shape (this is what a caller who sized the sink from Config.Shards
// rather than SinkShape hits).
func TestRunRefusesMismatchedSink(t *testing.T) {
	deps, _ := testDeployments(t, 64, 7)
	cfg := Config{Shards: 8, Packets: 100, Injectors: 3, fabricWorkers: 2}
	for _, tc := range []struct {
		name  string
		shape telemetry.Config
		want  string
	}{
		{"one row per partition", telemetry.Config{Shards: make([]int, 8), Injectors: 3}, "8 shards + 3 injectors"},
		{"too few rows", telemetry.Config{Shards: make([]int, 1), Injectors: 3}, "1 shards + 3 injectors"},
		{"too few injectors", telemetry.Config{Shards: make([]int, 2), Injectors: 2}, "2 shards + 2 injectors"},
	} {
		cfg.Sink = telemetry.New(tc.shape)
		_, err := Run(deps["stretch6"], cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "run of 2 + 3") {
			t.Fatalf("%s: Run returned %v, want an error naming the sink's shape (%s) and the run's (2 + 3)", tc.name, err, tc.want)
		}
	}
	cfg.Sink = telemetry.New(cfg.SinkShape())
	if _, err := Run(deps["stretch6"], cfg); err != nil {
		t.Fatalf("sink built from SinkShape refused: %v", err)
	}
}

// TestSinkShapeCoversEveryWorker builds the sink from SinkShape on one,
// two and four cores: it must resolve the W that Run resolves there, so
// every fabric worker and every injector publishes through a probe, and
// the stage table's coverage — busy CPU time over the wall time the
// merged goroutines could have used — stays a fraction of the whole.
func TestSinkShapeCoversEveryWorker(t *testing.T) {
	deps, _ := testDeployments(t, 64, 7)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for procs, wantW := range map[int]int{1: 2, 2: 2, 4: 4} {
		runtime.GOMAXPROCS(procs)
		cfg := Config{
			Shards: 8, Packets: 20000, Injectors: 2,
			Workload: traffic.Spec{Kind: traffic.Zipf, ZipfTheta: 0.9}, Seed: 5,
		}
		shape := cfg.SinkShape()
		shape.SampleEvery = 1
		sink := telemetry.New(shape)
		cfg.Sink = sink
		res, err := Run(deps["stretch6"], cfg)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		snap := sink.Snapshot()
		if res.FabricWorkers != wantW || len(snap.Shards) != wantW {
			t.Fatalf("GOMAXPROCS=%d: %d fabric workers, %d sink rows, want %d", procs, res.FabricWorkers, len(snap.Shards), wantW)
		}
		for i, row := range snap.Shards {
			if row.Batches == 0 || row.Counters.Packets != res.PerShard[i].Packets {
				t.Fatalf("GOMAXPROCS=%d: worker %d published %d batches, %d packets (served %d)",
					procs, i, row.Batches, row.Counters.Packets, res.PerShard[i].Packets)
			}
		}
		if snap.Totals.Packets != cfg.Packets || snap.Injectors == nil || snap.Injectors.Injects != cfg.Packets {
			t.Fatalf("GOMAXPROCS=%d: sink saw %d packets, injectors %+v, want %d of each", procs, snap.Totals.Packets, snap.Injectors, cfg.Packets)
		}
		table := snap.FormatStageTable(res.Packets, float64(res.Elapsed.Nanoseconds())/float64(res.Packets))
		var cpus int
		var coverage float64
		at := strings.Index(table, "wall x")
		if at < 0 {
			t.Fatalf("GOMAXPROCS=%d: no coverage line in\n%s", procs, table)
		}
		if _, err := fmt.Sscanf(table[at:], "wall x %d cpus  coverage %f%%", &cpus, &coverage); err != nil {
			t.Fatalf("GOMAXPROCS=%d: coverage line does not parse (%v) in\n%s", procs, err, table)
		}
		t.Logf("GOMAXPROCS=%d: W=%d, coverage %.1f%% of %d cpus", procs, wantW, coverage, cpus)
		if cpus != procs || coverage <= 0 || coverage > 100 {
			t.Fatalf("GOMAXPROCS=%d: coverage %.1f%% of %d cpus, want (0, 100] of %d\n%s", procs, coverage, cpus, procs, table)
		}
	}
}

// metricsDoc is the /metrics JSON root the daemons serve.
type metricsDoc struct {
	Telemetry telemetry.Snapshot `json:"telemetry"`
	Shard     int                `json:"shard"`
}

// TestTCPMetricsEndpoint is the serving-plane end-to-end test: two
// loopback TCP daemons, each with its own sink and telemetry HTTP
// endpoint, a client running tagged roundtrips — then the acceptance
// contract itself: the counters scraped over /metrics equal the
// shard's own Stats() exactly, and /trace?rt=1 replays the recorded
// hop events.
func TestTCPMetricsEndpoint(t *testing.T) {
	deps, _ := testDeployments(t, 32, 9)
	dep := deps["stretch6"]
	const shards = 2
	place, err := NewPlacement(dep, shards, Contiguous)
	if err != nil {
		t.Fatal(err)
	}
	dep.Graph().Seal()

	lns := make([]net.Listener, shards)
	addrs := make([]string, shards)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	trs := make([]*TCPTransport, shards)
	ss := make([]*Shard, shards)
	sinks := make([]*telemetry.Sink, shards)
	httpAddrs := make([]string, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		trs[i] = NewTCPTransport(i, lns[i], addrs)
		view, err := dep.ShardView(i, place.Owner)
		if err != nil {
			t.Fatal(err)
		}
		// One sink per daemon, exactly as rtserve wires it: one shard
		// row labeled with the daemon's shard number, tracing every
		// tagged roundtrip.
		sinks[i] = telemetry.New(telemetry.Config{Shards: []int{i}, TraceEvery: 1})
		srv, bound, err := telemetry.Serve("127.0.0.1:0", sinks[i], map[string]any{"shard": i})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		httpAddrs[i] = bound
		ss[i] = NewShard(view, place, trs[i], Options{Sink: sinks[i], SinkShard: 0})
		wg.Add(1)
		go func(sh *Shard) {
			defer wg.Done()
			if err := sh.Serve(); err != nil {
				t.Errorf("shard %d: %v", sh.Index(), err)
			}
		}(ss[i])
	}
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
		wg.Wait()
	}()

	cl, err := DialClient(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for src := int32(0); src < 32; src += 3 {
		if _, _, err := roundtrip(cl, src, (src+7)%32); err != nil {
			t.Fatalf("roundtrip %d: %v", src, err)
		}
	}

	// The exactness contract: what /metrics serves equals Stats().
	// Shards publish at batch boundaries just after the client sees
	// its completion, so poll until the last publish lands.
	client := &http.Client{Timeout: 2 * time.Second}
	for i := 0; i < shards; i++ {
		st := ss[i].Stats()
		want := telemetry.Counters{
			Packets: st.Packets, Hops: st.Hops, Weight: st.Weight,
			FramesIn: st.FramesIn, FramesOut: st.FramesOut,
			Errors: st.Errors, Allocs: st.Allocs,
		}
		var doc metricsDoc
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, err := client.Get("http://" + httpAddrs[i] + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /metrics on daemon %d: status %d, err %v", i, resp.StatusCode, err)
			}
			doc = metricsDoc{}
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatalf("daemon %d /metrics JSON: %v\n%s", i, err, body)
			}
			if doc.Telemetry.Totals == want {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("daemon %d /metrics never matched Stats(): got %+v, want %+v",
					i, doc.Telemetry.Totals, want)
			}
			time.Sleep(20 * time.Millisecond)
		}
		if doc.Shard != i {
			t.Fatalf("daemon %d /metrics extra field shard = %d", i, doc.Shard)
		}
		if len(doc.Telemetry.Shards) != 1 || doc.Telemetry.Shards[0].Shard != i {
			t.Fatalf("daemon %d snapshot shard rows: %+v", i, doc.Telemetry.Shards)
		}

		// The Prometheus rendering serves the same packet counter.
		resp, err := client.Get(fmt.Sprintf("http://%s/metrics?format=prometheus", httpAddrs[i]))
		if err != nil {
			t.Fatal(err)
		}
		prom, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		wantLine := fmt.Sprintf("rtroute_packets_total{shard=%q} %d", fmt.Sprint(i), st.Packets)
		if !strings.Contains(string(prom), wantLine) {
			t.Fatalf("daemon %d prometheus output misses %q:\n%s", i, wantLine, prom)
		}
	}

	// Every Roundtrip is tagged rt=1 and TraceEvery is 1, so both
	// daemons' recorders hold the hop history; merged across daemons it
	// must include the inject and the completion.
	seen := map[string]bool{}
	for i := 0; i < shards; i++ {
		resp, err := client.Get("http://" + httpAddrs[i] + "/trace?rt=1")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var events []telemetry.Event
		if err := json.Unmarshal(body, &events); err != nil {
			t.Fatalf("daemon %d /trace JSON: %v\n%s", i, err, body)
		}
		for _, ev := range events {
			if ev.Rt != 1 {
				t.Fatalf("daemon %d trace leaked rt %d into rt=1 filter", i, ev.Rt)
			}
			seen[ev.Kind.String()] = true
		}
	}
	for _, kind := range []string{"inject", "hop", "flip", "complete"} {
		if !seen[kind] {
			t.Fatalf("no %q event recorded across daemons; saw %v", kind, seen)
		}
	}

	// The pprof surface answers (contents are the runtime's business).
	resp, err := client.Get("http://" + httpAddrs[0] + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ status %d", resp.StatusCode)
	}
}

package cluster

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rtroute/internal/core"
	"rtroute/internal/cover"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/rtz"
	"rtroute/internal/sim"
	"rtroute/internal/telemetry"
	"rtroute/internal/traffic"
)

// testDeployments builds a Deployment of every scheme kind over a
// shared seeded graph.
func testDeployments(t testing.TB, n int, seed int64) (map[string]*core.Deployment, graph.DistanceOracle) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomSC(n, 4*n, 8, rng)
	m := graph.AllPairs(g)
	perm := names.Random(n, rng)

	deps := make(map[string]*core.Deployment)
	add := func(name string, p sim.Plane, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dep, err := core.Deploy(p)
		if err != nil {
			t.Fatalf("%s: deploy: %v", name, err)
		}
		deps[name] = dep
	}
	s6, err := core.NewStretchSix(g, m, perm, rand.New(rand.NewSource(seed)), core.Stretch6Config{})
	add("stretch6", s6, err)
	ex, err := core.NewExStretch(g, m, perm, rand.New(rand.NewSource(seed)), core.ExStretchConfig{K: 2})
	add("exstretch", ex, err)
	poly, err := core.NewPolynomialStretch(g, m, perm, core.PolyConfig{K: 2})
	add("polystretch", poly, err)
	sub, err := rtz.New(g, m, rand.New(rand.NewSource(seed)), rtz.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := core.NewRTZPlane(sub, perm)
	add("rtz", rp, err)
	h, err := cover.BuildHierarchy(g, m, 2, 2, cover.VariantAwerbuchPeleg)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := core.NewHopPlane(g, h, perm)
	add("hop", hp, err)
	return deps, m
}

// replay re-serves the exact pair multiset of a cluster run through the
// sequential single-process runner and returns the same aggregates.
func replay(t *testing.T, dep *core.Deployment, cfg Config) *Result {
	t.Helper()
	injectors := cfg.Injectors
	if injectors <= 0 {
		injectors = cfg.Shards
	}
	stride := int64(cfg.SampleEvery)
	if stride < 1 {
		stride = 1
	}
	wl, err := traffic.NewWorkload(cfg.Workload, dep.Graph().N(), cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{}
	var samples []traffic.Sample
	for i, quota := range traffic.SplitQuota(cfg.Packets, injectors) {
		gen := wl.Generator(i)
		for j := int64(0); j < quota; j++ {
			src, dst := gen.Next()
			out, back, err := sim.RoundtripFlight(dep, src, dst, 0)
			if err != nil {
				t.Fatalf("replay %d->%d: %v", src, dst, err)
			}
			weight := out.Weight + back.Weight
			hops := out.Hops + back.Hops
			res.Packets++
			res.Hops += int64(hops)
			res.Weight += int64(weight)
			res.HopHist.Add(hops)
			hw := out.MaxHeaderWords
			if back.MaxHeaderWords > hw {
				hw = back.MaxHeaderWords
			}
			res.HdrHist.Add(hw)
			if cfg.Oracle != nil && j%stride == 0 {
				samples = append(samples, traffic.Sample{Src: dep.NodeOf(src), Dst: dep.NodeOf(dst), Weight: weight})
			}
		}
	}
	if cfg.Oracle != nil {
		res.Stretch, err = traffic.StretchQuantiles(cfg.Oracle, samples)
		if err != nil {
			t.Fatal(err)
		}
		res.Sampled = len(samples)
	}
	return res
}

// TestClusterMatchesSequentialRun is the tentpole certification: an
// 8-shard channel-bus cluster — packets wire-encoded at every shard
// crossing, decoded and resumed by the owner — must produce exactly the
// hop counts, routed weights, header peaks and stretch quantiles of a
// sequential single-process sim replay over the identical pair
// multiset, for every scheme kind. Run under -race this also certifies
// the engine's concurrency discipline.
func TestClusterMatchesSequentialRun(t *testing.T) {
	deps, m := testDeployments(t, 64, 7)
	for name, dep := range deps {
		cfg := Config{
			Shards: 8, Packets: 3000,
			Workload: traffic.Spec{Kind: traffic.Zipf, ZipfTheta: 0.9},
			Seed:     11, Oracle: m, SampleEvery: 3, InFlight: 64, Batch: 16,
		}
		got, err := Run(dep, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := replay(t, dep, cfg)
		if got.Packets != want.Packets || got.Hops != want.Hops || got.Weight != want.Weight {
			t.Fatalf("%s: totals (packets,hops,weight) = (%d,%d,%d), replay (%d,%d,%d)",
				name, got.Packets, got.Hops, got.Weight, want.Packets, want.Hops, want.Weight)
		}
		if !reflect.DeepEqual(got.HopHist, want.HopHist) {
			t.Fatalf("%s: hop histogram diverges from sequential replay", name)
		}
		if !reflect.DeepEqual(got.HdrHist, want.HdrHist) {
			t.Fatalf("%s: header histogram diverges from sequential replay", name)
		}
		if got.Sampled != want.Sampled || !reflect.DeepEqual(got.Stretch, want.Stretch) {
			t.Fatalf("%s: stretch quantiles %+v over %d samples, replay %+v over %d",
				name, got.Stretch, got.Sampled, want.Stretch, want.Sampled)
		}
		if got.CrossShard == 0 {
			t.Fatalf("%s: 8-shard run reported zero cross-shard frames", name)
		}
		var fromShards int64
		for _, st := range got.PerShard {
			fromShards += st.Packets
			if st.Errors != 0 {
				t.Fatalf("%s: shard %d reported %d errors", name, st.Shard, st.Errors)
			}
		}
		if fromShards != cfg.Packets {
			t.Fatalf("%s: per-shard packets sum to %d, want %d", name, fromShards, cfg.Packets)
		}
	}
}

// forcedW are the fabric widths the grouping tests force on an S = 8
// placement: one worker (no fabric), the two-core shape, two uneven
// groupings (3+3+2 and 2+2+1+2+1) and no grouping at all.
var forcedW = []int{1, 2, 3, 5, 8}

// TestClusterRouteIdentityAtEveryW certifies that regrouping partitions
// onto fabric workers changes no route. For every scheme kind and every
// forced W over the same S = 8 placement: an untraced run's totals,
// histograms and stretch quantiles equal the sequential replay's (and so
// each other's across W, as does the static cross-edge fraction), and a
// run with the flight recorder armed on every roundtrip walks, roundtrip
// by roundtrip and hop by hop, the node path of the sequential tracer —
// hops and weight follow from the path.
func TestClusterRouteIdentityAtEveryW(t *testing.T) {
	deps, m := testDeployments(t, 64, 7)
	for name, dep := range deps {
		base := Config{
			Shards: 8, Packets: 3000, Injectors: 3,
			Workload: traffic.Spec{Kind: traffic.Zipf, ZipfTheta: 0.9},
			Seed:     11, Oracle: m, SampleEvery: 1, InFlight: 64, Batch: 16,
		}
		want := replay(t, dep, base)
		var cut float64
		for _, w := range forcedW {
			cfg := base
			cfg.fabricWorkers = w
			got, err := Run(dep, cfg)
			if err != nil {
				t.Fatalf("%s W=%d: %v", name, w, err)
			}
			if got.Shards != 8 || got.FabricWorkers != w || len(got.PerShard) != w {
				t.Fatalf("%s W=%d: result reports %d partitions, %d workers, %d rows", name, w, got.Shards, got.FabricWorkers, len(got.PerShard))
			}
			if got.Packets != base.Packets || got.Hops != want.Hops || got.Weight != want.Weight {
				t.Fatalf("%s W=%d: totals (packets,hops,weight) = (%d,%d,%d), replay (%d,%d,%d)",
					name, w, got.Packets, got.Hops, got.Weight, want.Packets, want.Hops, want.Weight)
			}
			if !reflect.DeepEqual(got.HopHist, want.HopHist) || !reflect.DeepEqual(got.HdrHist, want.HdrHist) {
				t.Fatalf("%s W=%d: histograms diverge from sequential replay", name, w)
			}
			if got.Sampled != want.Sampled || !reflect.DeepEqual(got.Stretch, want.Stretch) {
				t.Fatalf("%s W=%d: stretch quantiles %+v over %d samples, replay %+v over %d",
					name, w, got.Stretch, got.Sampled, want.Stretch, want.Sampled)
			}
			if (got.CrossShard == 0) != (w == 1) {
				t.Fatalf("%s W=%d: %d frames shipped", name, w, got.CrossShard)
			}
			if w == forcedW[0] {
				cut = got.CrossEdgeFraction
			} else if got.CrossEdgeFraction != cut {
				t.Fatalf("%s W=%d: static cross-edge fraction %v, at W=%d %v — it must describe the requested placement",
					name, w, got.CrossEdgeFraction, forcedW[0], cut)
			}
			for _, st := range got.PerShard {
				if st.Errors != 0 || st.Nodes == 0 {
					t.Fatalf("%s W=%d: worker %d owns %d nodes and reported %d errors", name, w, st.Shard, st.Nodes, st.Errors)
				}
			}
			tracedPathsMatchTracer(t, name, dep, cfg)
		}
	}
}

// tracedPathsMatchTracer re-runs a shorter cfg with every roundtrip
// tagged and traced, rebuilds each roundtrip's node path from the
// recorded hop events (tag = injector<<40 | sequence, so the tag names
// the pair) and compares it with sim.Roundtrip's.
func tracedPathsMatchTracer(t *testing.T, name string, dep *core.Deployment, cfg Config) {
	t.Helper()
	cfg.Packets, cfg.Oracle = 400, nil
	shape := cfg.SinkShape()
	shape.TraceEvery, shape.RingSize, shape.SampleEvery = 1, 1<<14, -1
	sink := telemetry.New(shape)
	cfg.Sink = sink
	res, err := Run(dep, cfg)
	if err != nil {
		t.Fatalf("%s W=%d traced: %v", name, cfg.fabricWorkers, err)
	}
	if res.Packets != cfg.Packets || sink.TraceDropped() != 0 {
		t.Fatalf("%s W=%d traced: served %d of %d, %d events dropped", name, cfg.fabricWorkers, res.Packets, cfg.Packets, sink.TraceDropped())
	}
	type leg struct {
		rt  uint64
		ret bool
	}
	paths := map[leg]map[int32]int32{} // leg -> hop number -> node arrived at
	for _, ev := range sink.Events(0) {
		if ev.Kind != telemetry.EvHop {
			continue
		}
		k := leg{ev.Rt, ev.Return}
		if paths[k] == nil {
			paths[k] = map[int32]int32{}
		}
		if at, dup := paths[k][ev.Hops]; dup {
			t.Fatalf("%s W=%d: roundtrip %#x recorded hop %d twice (nodes %d and %d)", name, cfg.fabricWorkers, ev.Rt, ev.Hops, at, ev.At)
		}
		paths[k][ev.Hops] = ev.At
	}
	wl, err := traffic.NewWorkload(cfg.Workload, dep.Graph().N(), cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for i, quota := range traffic.SplitQuota(cfg.Packets, cfg.Injectors) {
		gen := wl.Generator(i)
		for seq := int64(1); seq <= quota; seq++ {
			src, dst := gen.Next()
			tr, err := sim.Roundtrip(dep, src, dst, 0)
			if err != nil {
				t.Fatal(err)
			}
			rt := uint64(i)<<40 | uint64(seq)
			for _, l := range []struct {
				ret  bool
				want []graph.NodeID
			}{{false, tr.Out.Path}, {true, tr.Back.Path}} {
				got := paths[leg{rt, l.ret}]
				if len(got) != len(l.want)-1 {
					t.Fatalf("%s W=%d: roundtrip %d->%d (return=%v) recorded %d hops, tracer walks %d",
						name, cfg.fabricWorkers, src, dst, l.ret, len(got), len(l.want)-1)
				}
				for h := 1; h < len(l.want); h++ {
					if got[int32(h)] != int32(l.want[h]) {
						t.Fatalf("%s W=%d: roundtrip %d->%d (return=%v) hop %d arrived at node %d, tracer at %d",
							name, cfg.fabricWorkers, src, dst, l.ret, h, got[int32(h)], l.want[h])
					}
				}
			}
		}
	}
}

// TestClusterFabricFloorOnOneCore pins the floor of the W rule: on one
// core the S partitions still fold onto two workers, not one, so the
// crossing path — and every test and example that asserts frames were
// shipped — is exercised whatever host runs them; only S = 1 runs
// without a fabric.
func TestClusterFabricFloorOnOneCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	deps, _ := testDeployments(t, 64, 7)
	for shards, want := range map[int]int{8: 2, 2: 2, 1: 1} {
		res, err := Run(deps["stretch6"], Config{Shards: shards, Packets: 2000, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Shards != shards || res.FabricWorkers != want || (res.CrossShard > 0) != (want > 1) {
			t.Fatalf("S=%d at GOMAXPROCS=1: %d partitions on %d fabric workers shipped %d frames, want %d workers",
				shards, res.Shards, res.FabricWorkers, res.CrossShard, want)
		}
	}
}

// TestPlacementPolicies locks the partition invariants: every policy
// covers all nodes with non-empty shards deterministically, and the
// rtz-aligned policy never splits a stretch-3 cluster across shards.
func TestPlacementPolicies(t *testing.T) {
	deps, _ := testDeployments(t, 96, 3)
	dep := deps["stretch6"]
	for _, policy := range []Policy{Contiguous, Hash, RTZAligned} {
		p, err := NewPlacement(dep, 6, policy)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		for _, c := range p.Counts() {
			if c == 0 {
				t.Fatalf("%s: empty shard in %v", policy, p.Counts())
			}
		}
		again, err := NewPlacement(dep, 6, policy)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Owner, again.Owner) {
			t.Fatalf("%s: placement is not deterministic", policy)
		}
		frac := p.CrossEdgeFraction(dep.Graph())
		if frac <= 0 || frac >= 1 {
			t.Fatalf("%s: cross-edge fraction %.3f out of (0,1)", policy, frac)
		}
		// Folding onto fewer workers keeps whole partitions together, in
		// contiguous runs, and leaves no worker empty.
		for w := 1; w <= 7; w++ {
			c := p.coarsen(w)
			if w >= 6 {
				if c != p {
					t.Fatalf("%s: coarsen(%d) of 6 partitions built a new placement", policy, w)
				}
				continue
			}
			for v, s := range p.Owner {
				if c.Owner[v] != s*int32(w)/6 {
					t.Fatalf("%s: coarsen(%d) sent node %d of partition %d to worker %d", policy, w, v, s, c.Owner[v])
				}
			}
			for worker, count := range c.Counts() {
				if count == 0 {
					t.Fatalf("%s: coarsen(%d) left worker %d empty", policy, w, worker)
				}
			}
		}
	}
	// rtz-aligned: nodes sharing a center share a shard.
	p, err := NewPlacement(dep, 6, RTZAligned)
	if err != nil {
		t.Fatal(err)
	}
	centers, err := rtzCenters(dep)
	if err != nil {
		t.Fatal(err)
	}
	shardOfCenter := map[graph.NodeID]int32{}
	for v, c := range centers {
		if s, ok := shardOfCenter[c]; ok && s != p.Owner[v] {
			t.Fatalf("cluster of center %d split across shards %d and %d", c, s, p.Owner[v])
		}
		shardOfCenter[c] = p.Owner[v]
	}
	// Policies without rtz labels must refuse rtz alignment.
	if _, err := NewPlacement(deps["polystretch"], 6, RTZAligned); err == nil {
		t.Fatal("rtz-aligned placement accepted a scheme without rtz labels")
	}
}

// TestShardViewRefusesForeignForward locks the locality discipline: a
// shard must not forward with state it does not hold.
func TestShardViewRefusesForeignForward(t *testing.T) {
	deps, _ := testDeployments(t, 16, 5)
	dep := deps["rtz"]
	p, err := NewPlacement(dep, 2, Contiguous)
	if err != nil {
		t.Fatal(err)
	}
	view, err := dep.ShardView(0, p.Owner)
	if err != nil {
		t.Fatal(err)
	}
	var foreign graph.NodeID = -1
	for v := 0; v < 16; v++ {
		if p.Owner[v] != 0 {
			foreign = graph.NodeID(v)
			break
		}
	}
	h, err := view.NewHeader(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := view.Forward(foreign, h); err == nil {
		t.Fatalf("shard 0 forwarded at foreign node %d", foreign)
	}
	if _, err := dep.ShardView(99, p.Owner); err == nil {
		t.Fatal("empty shard view accepted")
	}
}

// failingEndpoint fails its third Recv: a shard transport dying mid-run.
type failingEndpoint struct {
	Transport
	calls atomic.Int32
	err   error
}

func (f *failingEndpoint) Recv() ([]InFrame, error) {
	if f.calls.Add(1) == 3 {
		return nil, f.err
	}
	return f.Transport.Recv()
}

// TestWorkerPoolRefused: the deprecated Workers fields survive only so
// callers that set them to 1 keep compiling. A larger value asks for a
// worker pool no shard has, so Run and Serve refuse it with an error
// naming the field, instead of serving on one goroutine regardless —
// and leave no goroutine behind.
func TestWorkerPoolRefused(t *testing.T) {
	deps, _ := testDeployments(t, 64, 7)
	dep := deps["stretch6"]
	before := runtime.NumGoroutine()
	if _, err := Run(dep, Config{Shards: 4, Workers: 2, Packets: 100}); err == nil || !strings.Contains(err.Error(), "Config.Workers is 2") {
		t.Fatalf("Run with Workers 2 returned %v, want an error naming Config.Workers", err)
	}
	place, err := NewPlacement(dep, 1, Contiguous)
	if err != nil {
		t.Fatal(err)
	}
	view, err := dep.ShardView(0, place.Owner)
	if err != nil {
		t.Fatal(err)
	}
	bus := NewChanBus(1, 16)
	served := make(chan error, 1)
	go func() { served <- NewShard(view, place, bus.Endpoint(0), Options{Workers: 2}).Serve() }()
	select {
	case err := <-served:
		if err == nil || !strings.Contains(err.Error(), "Options.Workers is 2") {
			t.Fatalf("Serve with Workers 2 returned %v, want an error naming Options.Workers", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve with Workers 2 still serving after 5 s")
	}
	select {
	case <-bus.Done():
	default:
		t.Fatal("a refused Serve left its transport open")
	}
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines before, %d after the refusals", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunSurfacesShardError: when one shard's transport fails mid-run,
// Run must return that error promptly — the failed shard closes its
// endpoint, the fabric's first error closes the bus for every shard and
// injector — with every goroutine it started joined.
func TestRunSurfacesShardError(t *testing.T) {
	deps, _ := testDeployments(t, 64, 7)
	boom := errors.New("injected transport failure")
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := Run(deps["stretch6"], Config{
			Shards: 8, Packets: 1 << 22, Seed: 3, InFlight: 64,
			fabricWorkers: 2,
			wrapEndpoint: func(shard int, tr Transport) Transport {
				if shard == 1 {
					return &failingEndpoint{Transport: tr, err: boom}
				}
				return tr
			},
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("Run returned %v, want the injected transport failure", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Run still serving 5 s after a shard's transport failed")
	}
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines before the run, %d after it returned", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

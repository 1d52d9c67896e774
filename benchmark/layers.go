package main

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"time"

	"rtroute"
	"rtroute/internal/blocks"
	"rtroute/internal/churn"
	"rtroute/internal/cluster"
	"rtroute/internal/core"
	"rtroute/internal/cover"
	"rtroute/internal/graph"
	"rtroute/internal/rtmetric"
	"rtroute/internal/rtz"
	"rtroute/internal/sim"
	"rtroute/internal/telemetry"
	"rtroute/internal/traffic"
	"rtroute/internal/wire"
)

// layerSet is the traced run's output: per-layer metric name -> value
// (plus a few unpublished terms the budgets need).
type layerSet map[string]float64

// medianOf runs f `times` times under spans and returns the median wall.
func (r *run) medianOf(name string, times int, f func() error) (time.Duration, error) {
	if r.wl.toy {
		times = 1
	}
	walls := make([]float64, times)
	for i := range walls {
		wall, err := r.timed(name, f)
		if err != nil {
			return 0, err
		}
		walls[i] = float64(wall)
	}
	return time.Duration(median(walls)), nil
}

// scale shrinks an iteration count at smoke-test size.
func (r *run) scale(iters int) int {
	if r.wl.toy {
		return max(iters/100, 8)
	}
	return iters
}

// tracedRun is the --trace pass on one workload: build its world under
// spans, re-run its headline once untraced and once traced (their ratio
// is trace.overhead), time every layer on inputs drawn from the world,
// and add the layers up against end-to-end costs measured here.
func tracedRun(r *run) (layerSet, error) {
	L := layerSet{}
	st, _, err := r.newRestored()
	if err != nil {
		return nil, err
	}
	// The headline comparison goes last: by then the probes have grown
	// the heap and warmed every path, so neither side runs cold.
	probes := []func(restored, layerSet) error{
		r.probeGraph, r.probeBuild, r.probeSim, r.probeTraffic, r.probeFlight,
		r.probeFabric, r.probeTCP, r.probeChurn, r.probeBudgets, r.headlineOverhead,
	}
	for _, probe := range probes {
		if err := probe(st, L); err != nil {
			return nil, err
		}
	}
	names, selfNs, calls := selfByName(r.tr.spans)
	sort.Slice(names, func(a, b int) bool { return selfNs[names[a]] > selfNs[names[b]] })
	fmt.Fprintf(r.log, "\nspan self time (span minus the part its children cover), top of %d names:\n", len(names))
	for _, name := range names[:min(len(names), 12)] {
		fmt.Fprintf(r.log, "  %-44s %10.3f ms over %d calls\n", name, float64(selfNs[name])/1e6, calls[name])
	}
	return L, nil
}

// headline re-runs the workload's own timed operation once and returns
// the headline metric's value and whether lower is better.
func (r *run) headline(st restored) (value float64, lowerBetter bool, err error) {
	switch r.wl.name {
	case "build-1k":
		wall, err := r.buildAll(st.g, st.naming, nil)
		return wall.Seconds(), true, err
	case "mono-zipf", "mono-uniform-1k":
		rate, _, err := r.monoRep(st.world, 1, true)
		return rate, false, err
	case "chan-s8-zipf":
		res, err := r.chanRep(st, 1, true)
		if err != nil {
			return 0, false, err
		}
		return res.PacketsPerSec(), false, nil
	case "tcp-s2-w256", "tcp-s2-w1":
		cl, err := startTCPCluster(r, st.blob, r.fabricShards())
		if err != nil {
			return 0, false, err
		}
		rep, err := r.tcpRep(tcpState{st, cl}, 1, true)
		if stopErr := cl.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return 0, false, err
		}
		return float64(rep.completed) / rep.wall.Seconds(), false, nil
	case "churn-n512":
		res, err := r.shortChurn(st, 3)
		if err != nil {
			return 0, false, err
		}
		return res.FireRTPerSec, false, nil
	}
	return 0, false, fmt.Errorf("no headline for workload %q", r.wl.name)
}

// headlineOverhead reports trace.overhead: the headline traced over
// untraced, oriented so that above 1 means tracing cost something.
func (r *run) headlineOverhead(st restored, L layerSet) error {
	tr := r.tr
	r.tr = nil
	t0 := time.Now()
	plain, lower, err := r.headline(st)
	// Alternate, and keep each side's better reading. A headline that
	// runs for seconds (a build) gets one reading a side.
	rounds := 2
	if time.Since(t0) > 2*time.Second {
		rounds = 1
	}
	var traced float64
	for i := 0; i < rounds && err == nil; i++ {
		r.tr = tr
		var v float64
		if v, _, err = r.headline(st); err != nil {
			break
		}
		traced = better(lower, traced, v)
		r.tr = nil
		if i+1 < rounds {
			if v, _, err = r.headline(st); err == nil {
				plain = better(lower, plain, v)
			}
		}
	}
	r.tr = tr
	if err != nil {
		return err
	}
	L["trace.overhead"] = plain / traced
	if lower {
		L["trace.overhead"] = traced / plain
	}
	fmt.Fprintf(r.log, "headline untraced %.6g, traced %.6g\n", plain, traced)
	return nil
}

// better picks the better of two readings, ignoring an unset (zero) one.
func better(lower bool, a, b float64) float64 {
	if a == 0 || (lower && b < a) || (!lower && b > a) {
		return b
	}
	return a
}

// ---- graph ----

func (r *run) probeGraph(st restored, L layerSet) error {
	g, n := st.g, st.g.N()
	wall, err := r.medianOf("graph.AllPairs", 3, func() error { graph.AllPairs(g); return nil })
	if err != nil {
		return err
	}
	L["graph.allpairs_s"] = wall.Seconds()

	sources := rand.New(rand.NewSource(r.trafficSeed(104))).Perm(n)[:min(64, n)]
	scratch := graph.NewSSSPScratch(n)
	wall, _ = r.timed("graph.SSSPScratch.Dijkstra", func() error {
		for _, s := range sources {
			scratch.Dijkstra(g, graph.NodeID(s))
		}
		return nil
	})
	L["graph.dijkstra_us"] = float64(wall) / 1e3 / float64(len(sources))

	lazy := graph.NewLazyOracle(g, 0)
	wall, _ = r.timed("graph.LazyOracle.FromSource", func() error {
		for _, s := range sources {
			lazy.FromSource(graph.NodeID(s)) // every row cold
		}
		return nil
	})
	L["graph.lazy_row_us"] = float64(wall) / 1e3 / float64(len(sources))

	// (node, port) of every hop along sampled routes.
	type hop struct {
		at   graph.NodeID
		port graph.PortID
	}
	var hops []hop
	pairs, err := trafficPairs(r.wl.traffic, n, r.trafficSeed(105), r.scale(2000))
	if err != nil {
		return err
	}
	for _, p := range pairs {
		tr, err := sim.Roundtrip(st.s6, p.src, p.dst, 0)
		if err != nil {
			return err
		}
		for _, path := range [][]graph.NodeID{tr.Out.Path, tr.Back.Path} {
			for i := 0; i+1 < len(path); i++ {
				if port, ok := g.PortTo(path[i], path[i+1]); ok {
					hops = append(hops, hop{path[i], port})
				}
			}
		}
	}
	g.Seal()
	const sweeps = 20
	var missed int
	wall, _ = r.timed("graph.EdgeByPort", func() error {
		for s := 0; s < sweeps; s++ {
			for _, h := range hops {
				if _, ok := g.EdgeByPort(h.at, h.port); !ok {
					missed++
				}
			}
		}
		return nil
	})
	if missed > 0 {
		return fmt.Errorf("EdgeByPort missed %d ports that sampled routes use", missed)
	}
	L["graph.edgebyport_ns"] = float64(wall) / float64(sweeps*len(hops))
	return nil
}

// ---- construction layers ----

func (r *run) probeBuild(st restored, L layerSet) error {
	g, naming := st.g, st.naming
	m := graph.AllPairs(g) // every construction probe is "given the oracle"
	rng := func() *rand.Rand { return rand.New(rand.NewSource(r.seed + 1)) }

	var space *rtmetric.Space
	wall, _ := r.timed("rtmetric.New+Precompute", func() error {
		space = rtmetric.New(g, m, naming.Names)
		space.Precompute(0)
		return nil
	})
	L["rtmetric.space_s"] = wall.Seconds()

	wall, err := r.timed("rtz.New", func() error {
		_, err := rtz.New(g, m, rng(), rtz.Config{})
		return err
	})
	if err != nil {
		return err
	}
	L["rtz.build_s"] = wall.Seconds()

	wall, err = r.timed("blocks.Assign", func() error {
		_, err := blocks.Assign(space, 2, rng(), blocks.Config{Names: naming.Names})
		return err
	})
	if err != nil {
		return err
	}
	L["blocks.assign_s"] = wall.Seconds()

	wall, err = r.timed("cover.BuildHierarchy", func() error {
		_, err := cover.BuildHierarchy(g, m, 2, 2, cover.VariantAwerbuchPeleg)
		return err
	})
	if err != nil {
		return err
	}
	L["cover.hierarchy_s"] = wall.Seconds()

	// The three schemes given the oracle, then their snapshots.
	planes := make([]sim.Plane, len(paperSchemes))
	for i, build := range []func() (sim.Plane, error){
		func() (sim.Plane, error) { return core.NewStretchSix(g, m, naming, rng(), core.Stretch6Config{}) },
		func() (sim.Plane, error) { return core.NewExStretch(g, m, naming, rng(), core.ExStretchConfig{K: 2}) },
		func() (sim.Plane, error) { return core.NewPolynomialStretch(g, m, naming, core.PolyConfig{K: 2}) },
	} {
		wall, err := r.timed("core.New"+paperSchemes[i].name, func() (err error) {
			planes[i], err = build()
			return err
		})
		if err != nil {
			return err
		}
		L[[]string{"core.build_s6_s", "core.build_ex_s", "core.build_poly_s"}[i]] = wall.Seconds()
	}
	var marshalAll time.Duration
	for i, p := range planes {
		wall, err := r.timed("wire.MarshalScheme/"+paperSchemes[i].name, func() error {
			blob, err := wire.MarshalScheme(p)
			if i == 0 {
				L["wire.snapshot_bytes"] = float64(len(blob))
			}
			return err
		})
		if err != nil {
			return err
		}
		if i == 0 {
			L["wire.marshal_ms"] = float64(wall) / 1e6
		}
		marshalAll += wall
	}
	L["marshal_all_s"] = marshalAll.Seconds() // budget.build's term, not a published row

	wall, err = r.medianOf("wire.UnmarshalScheme", 3, func() error {
		_, err := wire.UnmarshalScheme(st.blob)
		return err
	})
	if err != nil {
		return err
	}
	L["wire.unmarshal_ms"] = float64(wall) / 1e6

	wall, err = r.medianOf("core.Deploy", 3, func() error {
		_, err := core.Deploy(st.s6)
		return err
	})
	if err != nil {
		return err
	}
	L["core.deploy_ms"] = float64(wall) / 1e6
	return nil
}

// ---- sim: the per-hop floor ----

func (r *run) probeSim(st restored, L layerSet) error {
	pairs, err := trafficPairs(r.wl.traffic, st.g.N(), r.trafficSeed(106), r.scale(20000))
	if err != nil {
		return err
	}
	fly := func(name string, p sim.Plane) (nsPerRT, hopsPerRT float64, err error) {
		var hops int64
		wall, err := r.medianOf(name, 3, func() error {
			var hdr sim.Header
			hops = 0
			for _, pr := range pairs {
				out, back, h, err := sim.RoundtripFlightReusing(p, hdr, pr.src, pr.dst, 0)
				if err != nil {
					return err
				}
				hdr = h
				hops += int64(out.Hops + back.Hops)
			}
			return nil
		})
		return float64(wall) / float64(len(pairs)), float64(hops) / float64(len(pairs)), err
	}
	ns, hops, err := fly("sim.RoundtripFlightReusing/scheme", st.s6)
	if err != nil {
		return err
	}
	L["sim.rt_ns"], L["sim.hop_ns"], L["hops_per_rt"] = ns, ns/hops, hops
	ns, _, err = fly("sim.RoundtripFlightReusing/deployment", st.dep)
	if err != nil {
		return err
	}
	L["sim.rt_dep_ns"] = ns
	return nil
}

// ---- traffic engine ----

// drawSink keeps the generator loop's result alive.
var drawSink int32

func (r *run) probeTraffic(st restored, L layerSet) error {
	var pl *traffic.Plane
	wall, err := r.medianOf("traffic.Compile", 3, func() (err error) {
		pl, err = traffic.Compile(st.s6)
		return err
	})
	if err != nil {
		return err
	}
	L["traffic.compile_ms"] = float64(wall) / 1e6

	wl, err := traffic.NewWorkload(r.wl.traffic, st.g.N(), r.trafficSeed(107))
	if err != nil {
		return err
	}
	gen, draws := wl.Generator(0), r.scale(2_000_000)
	var sum int32
	wall, _ = r.timed("traffic.Generator.Next", func() error {
		for i := 0; i < draws; i++ {
			s, d := gen.Next()
			sum += s ^ d
		}
		return nil
	})
	drawSink ^= sum
	L["traffic.gen_ns"] = float64(wall) / float64(draws)

	serve := func(workers int) (float64, error) {
		var res *traffic.Result
		_, err := r.timed(fmt.Sprintf("traffic.Run/w%d", workers), func() (err error) {
			res, err = traffic.Run(pl, traffic.Config{
				Workers: workers, Packets: int64(r.scale(400000 * workers)), Workload: r.wl.traffic, Seed: r.trafficSeed(108),
			})
			return err
		})
		if err != nil {
			return 0, err
		}
		return res.PacketsPerSec(), nil
	}
	one, err := serve(1)
	if err != nil {
		return err
	}
	all, err := serve(r.nproc)
	if err != nil {
		return err
	}
	L["traffic.w1_ns_per_rt"], L["traffic.scale"] = 1e9/one, all/one
	return nil
}

// ---- wire: flight frames of in-flight roundtrips ----

func (r *run) probeFlight(st restored, L layerSet) error {
	place, err := cluster.NewPlacement(st.dep, 8, cluster.RTZAligned)
	if err != nil {
		return err
	}
	views := make([]*core.ShardView, 8)
	for i := range views {
		if views[i], err = st.dep.ShardView(i, place.Owner); err != nil {
			return err
		}
	}
	// Fly each sampled roundtrip on its source's shard until it first
	// crosses a shard boundary, and keep it as the shard would ship it.
	type inFlight struct {
		f    wire.Frame
		h    sim.Header
		to   int
		data []byte
	}
	var flights []inFlight
	pairs, err := trafficPairs(r.wl.traffic, st.g.N(), r.trafficSeed(109), r.scale(4000))
	if err != nil {
		return err
	}
	for i, p := range pairs {
		src := st.dep.NodeOf(p.src)
		view := views[place.Shard(src)]
		h, err := view.NewHeader(p.src, p.dst)
		if err != nil {
			return err
		}
		fl := sim.Flight{Last: src, MaxHeaderWords: h.Words()}
		delivered, err := sim.NewSegmentRunner(st.g, view, 0, view.Owns).Fly(h, &fl)
		if err != nil {
			return err
		}
		if delivered {
			continue // the whole outbound leg stayed on one shard
		}
		f := wire.Frame{
			Kind: wire.FrameFlight, SrcName: p.src, DstName: p.dst, At: fl.Last,
			Home: int32(view.Shard()), Rt: uint64(i) + 1,
			Out: wire.LegTotals{Hops: int32(fl.Hops), Weight: fl.Weight, MaxHeaderWords: int32(fl.MaxHeaderWords)},
		}
		flights = append(flights, inFlight{f: f, h: h, to: place.Shard(fl.Last)})
	}
	if len(flights) == 0 {
		return fmt.Errorf("no sampled roundtrip crossed a shard boundary")
	}
	const sweeps = 20
	ops := float64(sweeps * len(flights))
	var buf []byte
	wall, err := r.timed("wire.AppendFlightFrame", func() error {
		for s := 0; s < sweeps; s++ {
			for i := range flights {
				fl := &flights[i]
				if buf, err = wire.AppendFlightFrame(buf[:0], &fl.f, fl.h, nil); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	L["wire.flight_encode_ns"] = float64(wall) / ops
	var bytes int
	for i := range flights {
		fl := &flights[i]
		if fl.data, err = wire.AppendFlightFrame(nil, &fl.f, fl.h, nil); err != nil {
			return err
		}
		bytes += len(fl.data)
	}
	L["wire.flight_bytes"] = float64(bytes) / float64(len(flights))

	var dec wire.HeaderDecoder
	var f wire.Frame
	wall, err = r.timed("wire.UnmarshalFlightFrame+DecodeFlight", func() error {
		for s := 0; s < sweeps; s++ {
			for i := range flights {
				if err := wire.UnmarshalFlightFrame(flights[i].data, &f); err != nil {
					return err
				}
				if _, _, err := dec.DecodeFlight(&f, views[flights[i].to]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	L["wire.flight_decode_ns"] = float64(wall) / ops
	wall, err = r.timed("wire.RepatchFlight", func() error {
		for s := 0; s < sweeps; s++ {
			for i := range flights {
				if err := wire.RepatchFlight(flights[i].data, &flights[i].f, flights[i].h); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	L["wire.flight_repatch_ns"] = float64(wall) / ops
	return nil
}

// ---- cluster fabric over channels ----

// probeChanConfig is chan-s8-zipf's configuration on this world.
func (r *run) probeChanConfig(packets int) cluster.Config {
	return cluster.Config{
		Shards: 8, Workers: 1, Placement: cluster.RTZAligned, Packets: int64(r.scale(packets)),
		Workload: r.wl.traffic, Seed: r.trafficSeed(110), Injectors: min(2, r.nproc), InFlight: 512,
	}
}

func (r *run) probeFabric(st restored, L layerSet) error {
	wall, err := r.medianOf("cluster.NewPlacement", 3, func() error {
		_, err := cluster.NewPlacement(st.dep, r.nproc, cluster.RTZAligned)
		return err
	})
	if err != nil {
		return err
	}
	L["cluster.placement_ms"] = float64(wall) / 1e6

	// The chan-s8-zipf engine on this world, with the process CPU time
	// it burned: the end-to-end cost budget.chan divides by.
	var res *cluster.Result
	cpu0 := cpuSeconds()
	if _, err = r.timed("cluster.Run/s8", func() (err error) {
		res, err = cluster.Run(st.dep, r.probeChanConfig(200000))
		return err
	}); err != nil {
		return err
	}
	L["chan_cpu_ns_per_rt"] = (cpuSeconds() - cpu0) * 1e9 / float64(res.Packets)
	L["cluster.crossings_per_rt"] = res.CrossingsPerRT()
	L["cluster.allocs_per_rt"] = res.AllocsPerRT()
	L["cluster.window_occupancy"] = res.WindowOccupancy

	// One shard: zero crossings, so what is left over the bare roundtrip
	// is the shard loop's fixed cost (inject, complete, window, frame).
	cfg := r.probeChanConfig(200000)
	cfg.Shards, cfg.Injectors = 1, 1
	if _, err = r.timed("cluster.Run/s1", func() (err error) {
		res, err = cluster.Run(st.dep, cfg)
		return err
	}); err != nil {
		return err
	}
	L["cluster.s1_ns_per_rt"] = float64(res.Elapsed) / float64(res.Packets)
	L["cluster.loop_fixed_ns"] = L["cluster.s1_ns_per_rt"] - L["sim.rt_dep_ns"]

	win, takes := cluster.NewWindow(512), r.scale(2_000_000)
	wall, _ = r.timed("cluster.Window.Take+Put", func() error {
		for i := 0; i < takes; i++ {
			win.Put(win.Take(1, nil))
		}
		return nil
	})
	L["cluster.window_ns"] = float64(wall) / float64(takes)

	frame := make([]byte, int(L["wire.flight_bytes"]))
	batch := make([]cluster.InFrame, 64)
	for i := range batch {
		batch[i].Data = frame
	}
	bus := cluster.NewChanBus(2, 1024)
	ep, sends := bus.Endpoint(1), r.scale(200000)
	wall, err = r.timed("cluster.ChanBus.SendBatch+Recv", func() error {
		for i := 0; i < sends; i++ {
			if err := bus.SendBatch(1, batch); err != nil {
				return err
			}
			if _, err := ep.Recv(); err != nil {
				return err
			}
		}
		return nil
	})
	bus.Close()
	if err != nil {
		return err
	}
	L["cluster.chan_xfer_ns"] = float64(wall) / float64(sends*len(batch))

	// The same engine with and without a sink at the daemon's defaults,
	// interleaved so host drift hits both alike.
	var rate [2][]float64
	for round := 0; round < 2; round++ {
		for withSink := 0; withSink < 2; withSink++ {
			cfg := r.probeChanConfig(100000)
			if withSink == 1 {
				shape := cfg.SinkShape()
				shape.SampleEvery = daemonSampleEvery
				cfg.Sink = telemetry.New(shape)
			}
			if _, err = r.timed(fmt.Sprintf("cluster.Run/s8/sink=%d", withSink), func() (err error) {
				res, err = cluster.Run(st.dep, cfg)
				return err
			}); err != nil {
				return err
			}
			rate[withSink] = append(rate[withSink], res.PacketsPerSec())
		}
	}
	L["telemetry.sink_overhead"] = median(rate[0]) / median(rate[1])
	return nil
}

// ---- TCP transport and the window-1 cluster ----

func (r *run) probeTCP(st restored, L layerSet) error {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lnA.Close()
		return err
	}
	addrs := []string{lnA.Addr().String(), lnB.Addr().String()}
	a, b := cluster.NewTCPTransport(0, lnA, addrs), cluster.NewTCPTransport(1, lnB, addrs)
	defer a.Close()
	defer b.Close()
	frame := make([]byte, int(L["wire.flight_bytes"]))
	// b answers every `unit` frames it receives with one frame, for a
	// fixed number of exchanges.
	echo := func(unit, exchanges int) <-chan error {
		done := make(chan error, 1)
		go func() {
			for x := 0; x < exchanges; x++ {
				for n := unit; n > 0; {
					got, err := b.Recv()
					if err != nil {
						done <- err
						return
					}
					n -= len(got)
				}
				if err := b.Send(0, frame); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		return done
	}
	exchange := func(batch []cluster.InFrame, times int) (time.Duration, error) {
		done := echo(len(batch), times+1)
		step := func() error {
			if err := a.SendBatch(1, batch); err != nil {
				return err
			}
			_, err := a.Recv()
			return err
		}
		if err := step(); err != nil { // dials both directions before timing
			return 0, err
		}
		wall, err := r.timed(fmt.Sprintf("cluster.TCPTransport.SendBatch/%d+Recv", len(batch)), func() error {
			for i := 0; i < times; i++ {
				if err := step(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		return wall, <-done
	}
	pings := r.scale(4000)
	wall, err := exchange([]cluster.InFrame{{Data: frame}}, pings)
	if err != nil {
		return err
	}
	// A ping-pong is two transfers.
	L["cluster.tcp_xfer_us"] = float64(wall) / 1e3 / float64(2*pings)
	batch := make([]cluster.InFrame, 64)
	for i := range batch {
		batch[i].Data = frame
	}
	bursts := r.scale(2000)
	if wall, err = exchange(batch, bursts); err != nil {
		return err
	}
	// Per frame, with the one-frame answer's transfer taken out.
	L["cluster.tcp_batch_ns"] = max(float64(wall)/float64(bursts)-1e3*L["cluster.tcp_xfer_us"], 0) / float64(len(batch))

	// One roundtrip in flight through the rtserve replica on this world.
	cl, err := startTCPCluster(r, st.blob, r.nproc)
	if err != nil {
		return err
	}
	pairs, err := trafficPairs(r.wl.traffic, st.g.N(), r.trafficSeed(111), r.scale(4000))
	if err == nil {
		var rep tcpRep
		_, err = r.timed("cluster.Client.Roundtrips/w1", func() (err error) {
			rep, err = cl.roundtrips(pairs, 1)
			return err
		})
		if err == nil {
			us := make([]float64, len(rep.latencyNs))
			for i, ns := range rep.latencyNs {
				us[i] = float64(ns) / 1e3
			}
			sort.Float64s(us)
			L["cluster.tcp_w1_p50_us"] = percentile(us, 50)
		}
	}
	if stopErr := cl.stop(); err == nil {
		err = stopErr
	}
	framesOut, _ := cl.stats()
	L["tcp_crossings_per_rt"] = float64(framesOut) / float64(len(pairs))
	return err
}

// ---- churn: event application, probe, rebuild ----

// replica is one private copy of the world under churn, as a shard
// holds it: cloned graph, lazy oracle, maintained plane, overlay.
type replica struct {
	g  *graph.Graph
	m  *rtroute.Maintained
	ov *churn.Overlay
}

func (r *run) newReplica(st restored) (*replica, error) {
	g := st.g.Clone()
	sys, err := rtroute.NewSystemWith(g, st.naming, rtroute.SystemConfig{Metric: rtroute.MetricLazy})
	if err != nil {
		return nil, err
	}
	m, err := sys.BuildMaintained(rtroute.StretchSix, rtroute.WithSeed(r.seed+1))
	if err != nil {
		return nil, err
	}
	ov, err := churn.NewOverlay(g, churn.NewDamper(churn.DamperConfig{}))
	return &replica{g, m, ov}, err
}

// apply folds one event into the replica's overlay and returns the
// sorted dirty set, as the cluster's repair hook does.
func (rp *replica) apply(ev churn.Event) ([]graph.NodeID, error) {
	dirty, err := rp.ov.Apply(ev)
	if err != nil {
		return nil, err
	}
	released, err := rp.ov.Advance(ev.At)
	if err != nil {
		return nil, err
	}
	seen := make(map[graph.NodeID]bool, len(dirty))
	for _, d := range dirty {
		seen[d] = true
	}
	for _, d := range released {
		if !seen[d] {
			seen[d] = true
			dirty = append(dirty, d)
		}
	}
	churn.SortNodeIDs(dirty)
	return dirty, nil
}

// churnWeights is the perturbation band of the workload's regime.
func (r *run) churnWeights() (lo, hi graph.Dist) {
	if r.wl.churnRegime {
		return 33, 64
	}
	return 1, r.wl.maxW
}

func (r *run) probeChurn(st restored, L layerSet) error {
	full, err := r.newReplica(st)
	if err != nil {
		return err
	}
	half, err := r.newReplica(st)
	if err != nil {
		return err
	}
	lo, hi := r.churnWeights()
	model := churn.NewModel(full.ov, worldSeed+20, 1, churn.DefaultMix, hi)
	model.SetMinWeight(lo)
	n := st.g.N()
	ownsHalf := func(v graph.NodeID) bool { return int(v) < n/2 }
	batches := 6
	if n > 512 || r.wl.toy {
		batches = 2 // a dense-regime event dirties ~90% of a big graph: each rebuild is a full build
	}
	var applyUs, nodesMs, ownedMs, dirtyFrac []float64
	for b := 0; b < batches; b++ {
		ev := model.Next()
		var dirty []graph.NodeID
		wall, err := r.timed("churn.Overlay.Apply", func() (err error) {
			dirty, err = full.apply(ev)
			return err
		})
		if err != nil {
			return err
		}
		applyUs = append(applyUs, float64(wall)/1e3)
		dirtyFrac = append(dirtyFrac, float64(len(dirty))/float64(n))
		wall, err = r.timed("core.Maintained.RebuildNodes", func() error {
			_, err := full.m.RebuildNodes(dirty)
			return err
		})
		if err != nil {
			return err
		}
		nodesMs = append(nodesMs, float64(wall)/1e6)
		if dirty, err = half.apply(ev); err != nil {
			return err
		}
		wall, err = r.timed("core.Maintained.RebuildNodesFor", func() error {
			_, err := half.m.RebuildNodesFor(dirty, ownsHalf)
			return err
		})
		if err != nil {
			return err
		}
		ownedMs = append(ownedMs, float64(wall)/1e6)
	}
	L["churn.apply_us"], L["churn.dirty_frac"] = median(applyUs), median(dirtyFrac)
	L["core.rebuild_nodes_ms"], L["core.rebuild_owned_ms"] = median(nodesMs), median(ownedMs)

	// The bounded probe alone: reweight sampled edges and put them back.
	g := st.g.Clone()
	prober := churn.NewProber()
	rng := rand.New(rand.NewSource(r.trafficSeed(121)))
	probes := r.scale(400) / 2
	wall, _ := r.timed("churn.Prober.Affected", func() error {
		for i := 0; i < probes; i++ {
			u := graph.NodeID(rng.Intn(n))
			e := g.Out(u)[rng.Intn(g.OutDegree(u))]
			w := e.Weight + 1
			if w > hi {
				w = lo
			}
			prober.Affected(g, u, e.To, w)
			prober.Affected(g, u, e.To, e.Weight)
		}
		return nil
	})
	L["churn.probe_us"] = float64(wall) / 1e3 / float64(2*probes)

	// The whole repair as the fabric runs it: the slowest shard's fence
	// hold per batch, from a short churn run on this world.
	res, err := r.shortChurn(st, batches)
	if err != nil {
		return err
	}
	var repairMs []float64
	for _, row := range res.BatchRows {
		repairMs = append(repairMs, float64(row.RepairNsMax)/1e6)
	}
	L["churn.repair_ms"] = median(repairMs)
	return nil
}

// shortChurn runs RunChurnCluster for a few batches on a private clone
// of the world (the driver mutates its graph).
func (r *run) shortChurn(st restored, batches int) (*rtroute.ChurnClusterResult, error) {
	sys, err := rtroute.NewSystemWith(st.g.Clone(), st.naming, rtroute.SystemConfig{Metric: rtroute.MetricLazy})
	if err != nil {
		return nil, err
	}
	cfg := r.churnConfig(0)
	lo, hi := r.churnWeights()
	cfg.Shards, cfg.Batches, cfg.MinWeight, cfg.MaxWeight = 2, batches, lo, hi
	cfg.FirePackets, cfg.StablePackets = int64(r.scale(5000)), int64(r.scale(5000))
	var res *rtroute.ChurnClusterResult
	_, err = r.timed("rtroute.RunChurnCluster", func() (err error) {
		res, err = rtroute.RunChurnCluster(sys, cfg)
		return err
	})
	return res, err
}

// ---- budgets: do the layers add up? ----

func (r *run) probeBudgets(st restored, L layerSet) error {
	crossings := L["cluster.crossings_per_rt"]
	perCrossing := L["wire.flight_decode_ns"] + L["wire.flight_repatch_ns"]

	// One worker's roundtrip: its hops plus drawing the pair.
	L["budget.mono"] = (L["hops_per_rt"]*L["sim.hop_ns"] + L["traffic.gen_ns"]) / L["traffic.w1_ns_per_rt"]

	// A fabric roundtrip, in CPU time: the bare Deployment roundtrip,
	// the shard loop's fixed cost, the pair and its window credit, the
	// inject's and the flip's encodes, and per crossing a decode, a
	// repatch and a mailbox transfer.
	L["budget.chan"] = (L["sim.rt_dep_ns"] + L["cluster.loop_fixed_ns"] + L["traffic.gen_ns"] + L["cluster.window_ns"] +
		2*L["wire.flight_encode_ns"] + crossings*(perCrossing+L["cluster.chan_xfer_ns"])) / L["chan_cpu_ns_per_rt"]

	// One roundtrip in flight over TCP: client -> shard and shard ->
	// client, one more transfer per shard crossing, the routing itself.
	tcpCrossings := L["tcp_crossings_per_rt"]
	L["budget.tcp_w1"] = ((2+tcpCrossings)*L["cluster.tcp_xfer_us"] +
		(L["sim.rt_dep_ns"]+tcpCrossings*perCrossing)/1e3) / L["cluster.tcp_w1_p50_us"]

	// build-1k's operation on this world against its parts.
	wall, err := r.buildAll(st.g, st.naming, nil)
	if err != nil {
		return err
	}
	L["budget.build"] = (L["graph.allpairs_s"] + L["core.build_s6_s"] + L["core.build_ex_s"] + L["core.build_poly_s"] + L["marshal_all_s"]) / wall.Seconds()

	// A shard's repair: apply the event (the probe is inside) and
	// rebuild its owned slice.
	L["budget.repair"] = (L["churn.apply_us"]/1e3 + L["core.rebuild_owned_ms"]) / L["churn.repair_ms"]

	for _, name := range []string{"budget.mono", "budget.chan", "budget.tcp_w1", "budget.build", "budget.repair"} {
		if v := L[name]; v < budgetLo || v > budgetHi {
			fmt.Fprintf(r.log, "BUDGET %s = %.3f is outside %g-%g: the layers named do not explain the end-to-end cost\n", name, v, budgetLo, budgetHi)
		}
	}
	return nil
}

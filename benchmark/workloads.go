package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"rtroute"
	"rtroute/internal/graph"
	"rtroute/internal/traffic"
)

// workload is one set of inputs the benchmark runs. Sizes are for a
// 2-core shared host: a serving rep lasts about a second, so a run's
// medians rest on several reps inside the driver's --seconds.
type workload struct {
	name string
	why  string
	n    int        // nodes
	deg  int        // RandomSC extra edges per node
	maxW graph.Dist // edge weights drawn from [1, maxW]
	// churnRegime remaps weights into [33,64] and attaches the lazy
	// (mutation-tracking) oracle: the PR 8 low-dirty regime.
	churnRegime bool
	traffic     traffic.Spec
	shards      int   // fabric width (0 = nproc)
	window      int   // TCP client window
	perRep      int64 // roundtrips per measured rep (churn: per fire/stable window)
	batches     int   // churn batches per rep
	setups      int   // timed set-ups per run (their median is setup_s)
	toy         bool  // smoke-test size: one set-up, one rep
	measure     func(*run) error
}

var zipf = traffic.Spec{Kind: traffic.Zipf, ZipfTheta: 0.9}

// workloads is the benchmark's fixed set; BENCHMARK.json carries the
// same names and reasons.
var workloads = []workload{
	{
		name: "build-1k",
		why:  "Scheme construction at n=1024 bypasses serving: graph, rtz, blocks, cover, core build and snapshot codec do all the work; stretch and bytes/node are pinned so speed cannot be bought with quality.",
		n:    1024, deg: 4, maxW: 8, perRep: qualitySample, setups: 31, measure: measureBuild,
	},
	{
		name: "mono-zipf",
		why:  "Monolithic compiled plane on n=256 with Zipf pairs, tables cache-resident: pure per-hop cost, so a fabric, codec or TCP change must show nothing here.",
		n:    256, deg: 4, maxW: 8, traffic: zipf, perRep: 1500000, setups: 9, measure: measureMono,
	},
	{
		name: "mono-uniform-1k",
		why:  "Same engine on n=1024 with uniform pairs: the table working set far exceeds cache and routes are longer, so table-layout work shows here and not on mono-zipf.",
		n:    1024, deg: 4, maxW: 8, perRep: 700000, setups: 5, measure: measureMono,
	},
	{
		name: "chan-s8-zipf",
		why:  "Wire-restored n=256 Deployment on 8 shards over the channel bus: crossing-heavy, so flight-frame codec, shard loop and window dominate and TCP does nothing.",
		n:    256, deg: 4, maxW: 8, traffic: zipf, shards: 8, perRep: 350000, setups: 9, measure: measureChan,
	},
	{
		name: "tcp-s2-w256",
		why:  "rtserve's wiring over loopback TCP, one shard per core, one client with 256 roundtrips in flight: end-to-end throughput under a full window, where batching, flush and syscall work shows.",
		n:    256, deg: 4, maxW: 8, traffic: zipf, window: 256, perRep: 90000, setups: 7, measure: measureTCP,
	},
	{
		name: "tcp-s2-w1",
		why:  "Same TCP cluster with one roundtrip in flight and uniform pairs: latency is the sum of per-crossing wake-ups, so a change that delays flushes to lift tcp-s2-w256 pays for it here.",
		n:    256, deg: 4, maxW: 8, window: 1, perRep: 7000, setups: 7, measure: measureTCP,
	},
	{
		name: "churn-n512",
		why:  "Online repair beside serving on n=512 in the low-dirty regime: affected-set probe, substrate replay, table rebuild and epoch fence with roundtrips in flight, so repair and serving trade off.",
		n:    512, deg: 32, maxW: 64, churnRegime: true, traffic: zipf, shards: 2, perRep: 5000, batches: 20, measure: measureChurn,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// shrunk returns the workload at smoke-test size: every code path and
// every correctness check in a fraction of a second.
func (w workload) shrunk() workload {
	w.toy = true
	w.n = 64
	w.deg = min(w.deg, 8)
	w.perRep = max(w.perRep/500, 500)
	w.batches = min(w.batches, 2)
	return w
}

// fabricShards resolves the workload's fabric width.
func (r *run) fabricShards() int {
	if r.wl.shards > 0 {
		return r.wl.shards
	}
	return r.nproc
}

// pooledLatency publishes rt_p50_us and rt_p99_us over the pooled
// samples of all measured reps. With fewer than 1000 samples p99 has
// under ten samples beyond it, and the highest supported percentile is
// reported under the rt_p99_us name instead; the log line says which.
func (r *run) pooledLatency(ns []int64) {
	us := make([]float64, len(ns))
	for i, v := range ns {
		us[i] = float64(v) / 1e3
	}
	sort.Float64s(us)
	hi := min(highestPercentile(len(us)), 99)
	r.set("rt_p50_us", percentile(us, 50))
	r.set("rt_p99_us", percentile(us, hi))
	r.samples["rt_p50_us"], r.samples["rt_p99_us"] = len(us), len(us)
	fmt.Fprintf(r.log, "latency over %d pooled samples: p50 %.2f us, p%g %.2f us, max %.2f us\n",
		len(us), percentile(us, 50), hi, percentile(us, hi), us[len(us)-1])
}

// ---- build-1k ----

// paperSchemes are the paper's three TINN schemes at their k=2 setting.
var paperSchemes = []struct {
	name string
	kind rtroute.SchemeKind
}{
	{"StretchSix", rtroute.StretchSix},
	{"ExStretch", rtroute.ExStretch},
	{"Polynomial", rtroute.Polynomial},
}

// buildAll is build-1k's timed operation: the oracle, then each of the
// three schemes built and snapshotted with per-node sizes. It returns
// the summed wall of those calls. After each scheme's snapshot, each
// (when non-nil) runs outside the clock, and the scheme is dropped
// before the next is built: holding all three at once doubles the
// process's footprint, and on this VM first-touch page faults cost more
// than the build.
func (r *run) buildAll(g *graph.Graph, naming *rtroute.Naming,
	each func(i int, sys *rtroute.System, sch rtroute.Scheme, blob []byte, sizes []int) error) (time.Duration, error) {
	var sys *rtroute.System
	total, err := r.timed("rtroute.NewSystem", func() (err error) {
		sys, err = rtroute.NewSystem(g, naming)
		return err
	})
	if err != nil {
		return 0, err
	}
	for i, ps := range paperSchemes {
		var sch rtroute.Scheme
		wall, err := r.timed("rtroute.Build/"+ps.name, func() (err error) {
			sch, err = sys.Build(ps.kind, rtroute.WithK(2), rtroute.WithSeed(r.seed+1))
			return err
		})
		if err != nil {
			return 0, err
		}
		total += wall
		var blob []byte
		var sizes []int
		wall, err = r.timed("rtroute.MarshalSchemeSizes/"+ps.name, func() (err error) {
			blob, sizes, err = rtroute.MarshalSchemeSizes(sch)
			return err
		})
		if err != nil {
			return 0, err
		}
		total += wall
		if each != nil {
			if err := each(i, sys, sch, blob, sizes); err != nil {
				return 0, err
			}
		}
		sch, blob, sizes = nil, nil, nil
		runtime.GC() // outside the clock: the next build starts on a swept heap
	}
	return total, nil
}

func measureBuild(r *run) error {
	type graphState struct {
		g      *graph.Graph
		naming *rtroute.Naming
	}
	// Set-up is the graph and naming alone; the build is the timed part.
	st, err := setUps(r, r.wl.setups, func() (graphState, float64, error) {
		g, naming, err := r.newGraph()
		return graphState{g, naming}, 0, err
	}, nil)
	if err != nil {
		return err
	}
	pairs := r.qualityPairs(int(r.wl.perRep))
	// The warm-up is a whole discarded build: it grows the heap to the
	// build's ~0.55 GB working set, so the measured rep times the build
	// and not the host's first-touch page faults (which swing a cold
	// rep between 5 and 25 s on this VM).
	return r.reps(true, func(rep int, warm bool) (time.Duration, error) {
		var routed int
		var routing time.Duration
		// Restore each snapshot and route the sample through the
		// restored Deployment (timed for rt_per_s) and the built scheme
		// (the route-identity reference).
		buildWall, err := r.buildAll(st.g, st.naming, func(i int, sys *rtroute.System, sch rtroute.Scheme, blob []byte, sizes []int) error {
			var dep *rtroute.Deployment
			err := r.span("rtroute.UnmarshalScheme/"+paperSchemes[i].name, func() (err error) {
				dep, err = rtroute.UnmarshalScheme(blob)
				return err
			})
			if err != nil || warm {
				return err
			}
			sid := r.tr.begin("sim.RoundtripFlight/" + paperSchemes[i].name)
			q := r.sampleQuality(sys, dep, sch, pairs)
			// The sample routes in ~0.1 s: time it five times and keep
			// the median, or a burst on the host sets the rate.
			passes := make([]float64, 5)
			for k := range passes {
				passes[k] = float64(routePass(dep, pairs))
			}
			r.tr.end(sid)
			routed += len(pairs)
			routing += time.Duration(median(passes))
			if paperSchemes[i].kind == rtroute.StretchSix {
				r.reportQuality(q, sizes)
			}
			fmt.Fprintf(r.log, "rep %d %-10s stretch max %.3f mean %.3f  node bytes max %d  snapshot %d B  %.1f hops/rt\n",
				rep, paperSchemes[i].name, q.max, q.mean, slices.Max(sizes), len(blob), float64(q.hops)/float64(len(pairs)))
			return nil
		})
		if err != nil {
			return 0, err
		}
		if !warm {
			r.add("build_s", buildWall.Seconds())
			r.add("rt_per_s", float64(routed)/routing.Seconds())
			fmt.Fprintf(r.log, "rep %d: oracle + three builds + three snapshots in %.2f s\n", rep, buildWall.Seconds())
		}
		return buildWall, nil
	})
}

// ---- mono-* ----

func measureMono(r *run) error {
	w, err := setUps(r, r.wl.setups, func() (*world, float64, error) {
		w, err := r.newWorld()
		if err != nil {
			return nil, 0, err
		}
		return w, w.buildS, nil
	}, nil)
	if err != nil {
		return err
	}
	err = r.reps(true, func(i int, warm bool) (time.Duration, error) {
		_, wall, err := r.monoRep(w, i, warm)
		return wall, err
	})
	if err != nil {
		return err
	}
	r.reportQuality(r.sampleQuality(w.sys, w.s6, nil, r.qualityPairs(qualitySample)), w.sizes)
	return nil
}

// monoRep is one ServeTraffic call at one worker per core.
func (r *run) monoRep(w *world, i int, warm bool) (rate float64, wall time.Duration, err error) {
	quota := r.wl.perRep
	if warm {
		quota /= 4
	}
	cfg := rtroute.TrafficConfig{
		Workers: r.nproc, Packets: quota, Workload: r.wl.traffic,
		Seed: r.trafficSeed(i), SampleEvery: 64,
	}
	id := r.tr.begin("rtroute.ServeTraffic")
	t0 := time.Now()
	res, err := w.sys.ServeTraffic(w.s6, cfg)
	wall = time.Since(t0)
	r.tr.end(id)
	if err != nil {
		return 0, wall, err
	}
	rate = float64(res.Packets) / wall.Seconds()
	if warm {
		return rate, wall, nil
	}
	r.attempted += quota
	if res.Packets != quota {
		r.fail(quota-res.Packets, "rep %d: served %d of %d roundtrips", i, res.Packets, quota)
	}
	r.checkStretch("engine-sampled", res.Stretch.Max)
	r.add("rt_per_s", rate)
	fmt.Fprintf(r.log, "rep %d: %.0f rt/s  %.1f hops/rt  %.1fM hops/s  engine stretch max %.3f over %d samples\n",
		i, rate, res.HopHist.Mean(), float64(res.Hops)/wall.Seconds()/1e6, res.Stretch.Max, res.Sampled)
	return rate, wall, nil
}

// ---- chan-s8-zipf ----

// restored is a world plus the Deployment restored from its snapshot.
type restored struct {
	*world
	dep *rtroute.Deployment
}

func (r *run) newRestored() (restored, float64, error) {
	w, err := r.newWorld()
	if err != nil {
		return restored{}, 0, err
	}
	var dep *rtroute.Deployment
	err = r.span("rtroute.UnmarshalScheme", func() (err error) {
		dep, err = rtroute.UnmarshalScheme(w.blob)
		return err
	})
	return restored{w, dep}, w.buildS, err
}

func measureChan(r *run) error {
	st, err := setUps(r, r.wl.setups, r.newRestored, nil)
	if err != nil {
		return err
	}
	err = r.reps(true, func(i int, warm bool) (time.Duration, error) {
		res, err := r.chanRep(st, i, warm)
		if err != nil {
			return 0, err
		}
		return res.Elapsed, nil
	})
	if err != nil {
		return err
	}
	r.reportQuality(r.sampleQuality(st.sys, st.dep, nil, r.qualityPairs(qualitySample)), st.sizes)
	return nil
}

// chanConfig is the historical "500k bar" configuration: 8 shards x 1
// worker, rtz-aligned placement, window 512, injectors capped at the
// core count.
func (r *run) chanConfig(quota int64, rep int) rtroute.ClusterConfig {
	return rtroute.ClusterConfig{
		Shards: r.fabricShards(), Workers: 1, Placement: rtroute.PlaceRTZAligned,
		Packets: quota, Workload: r.wl.traffic, Seed: r.trafficSeed(rep),
		SampleEvery: 64, Injectors: min(2, r.nproc), InFlight: 512,
	}
}

func (r *run) chanRep(st restored, i int, warm bool) (res *rtroute.ClusterResult, err error) {
	quota := r.wl.perRep
	if warm {
		quota /= 4
	}
	id := r.tr.begin("rtroute.ServeCluster")
	t0 := time.Now()
	res, err = st.sys.ServeCluster(st.dep, r.chanConfig(quota, i))
	wall := time.Since(t0)
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	res.Elapsed = wall // the timed call, not the engine's inner clock
	if warm {
		return res, nil
	}
	r.attempted += quota
	if res.Packets != quota {
		r.fail(quota-res.Packets, "rep %d: served %d of %d roundtrips", i, res.Packets, quota)
	}
	for _, ss := range res.PerShard {
		if ss.Errors != 0 {
			r.fail(ss.Errors, "rep %d: shard %d counted %d errors", i, ss.Shard, ss.Errors)
		}
	}
	r.checkStretch("engine-sampled", res.Stretch.Max)
	r.add("rt_per_s", res.PacketsPerSec())
	fmt.Fprintf(r.log, "rep %d: %.0f rt/s  %.2f crossings/rt  window occupancy %.0f of %d  tracked allocs/rt %.3f\n",
		i, res.PacketsPerSec(), res.CrossingsPerRT(), res.WindowOccupancy, res.InFlight, res.AllocsPerRT())
	return res, nil
}

// ---- tcp-s2-* ----

// tcpState is a restored world served by an in-process rtserve cluster.
type tcpState struct {
	restored
	cl *tcpCluster
}

func (r *run) newTCPState() (tcpState, float64, error) {
	st, buildS, err := r.newRestored()
	if err != nil {
		return tcpState{}, 0, err
	}
	cl, err := startTCPCluster(r, st.blob, r.fabricShards())
	return tcpState{st, cl}, buildS, err
}

func measureTCP(r *run) error {
	st, err := setUps(r, r.wl.setups, r.newTCPState, func(st tcpState) error { return st.cl.stop() })
	if err != nil {
		return err
	}
	var latency []int64
	err = r.reps(true, func(i int, warm bool) (time.Duration, error) {
		rep, err := r.tcpRep(st, i, warm)
		if !warm {
			latency = append(latency, rep.latencyNs...)
		}
		return rep.wall, err
	})
	stopErr := st.cl.stop()
	if err != nil {
		return err
	}
	if stopErr != nil {
		return stopErr
	}
	if _, errs := st.cl.stats(); errs != 0 {
		r.fail(errs, "daemons dropped %d malformed or undeliverable frames", errs)
	}
	r.pooledLatency(latency)
	r.reportQuality(r.sampleQuality(st.sys, st.dep, nil, r.qualityPairs(qualitySample)), st.sizes)
	return nil
}

func (r *run) tcpRep(st tcpState, i int, warm bool) (tcpRep, error) {
	quota := int(r.wl.perRep)
	if warm {
		quota /= 4
	}
	pairs, err := trafficPairs(r.wl.traffic, r.wl.n, r.trafficSeed(i), quota)
	if err != nil {
		return tcpRep{}, err
	}
	id := r.tr.begin("cluster.Client.Roundtrips")
	rep, err := st.cl.roundtrips(pairs, r.wl.window)
	r.tr.end(id)
	if warm {
		return rep, err
	}
	r.attempted += int64(quota)
	if err != nil {
		// Unknown or duplicate tags, a dropped roundtrip, a short count:
		// everything not completed failed.
		r.fail(int64(quota-rep.completed), "rep %d: %v", i, err)
		return rep, err
	}
	if bad, first := rep.verify(st.dep, pairs); bad > 0 {
		r.fail(int64(bad), "rep %d: %d of %d sampled completions disagree with the sequential tracer; first: %s", i, bad, len(rep.checked), first)
	}
	rate := float64(quota) / rep.wall.Seconds()
	r.add("rt_per_s", rate)
	fmt.Fprintf(r.log, "rep %d: %.0f rt/s  window %d  %d completions checked against the tracer\n", i, rate, r.wl.window, len(rep.checked))
	return rep, nil
}

// ---- churn-n512 ----

func (r *run) churnConfig(rep int) rtroute.ChurnClusterConfig {
	return rtroute.ChurnClusterConfig{
		Kind:   rtroute.StretchSix,
		Build:  rtroute.BuildConfig{Seed: r.seed + 1, K: 2},
		Shards: r.fabricShards(), ChurnSeed: worldSeed + 20 + int64(rep),
		Batches: r.wl.batches, EventsPerBatch: 1,
		FirePackets: r.wl.perRep, StablePackets: r.wl.perRep,
		// Weight changes stay inside the regime's [33,64] band.
		MaxWeight: 64, MinWeight: 33,
		Workload: r.wl.traffic,
		// Slice certification against the reference replica and the
		// exact stable-window replay stay on (they are the correctness
		// check); the extra from-scratch build per batch does not.
		Certify: false,
	}
}

// churnRep is one world plus one RunChurnCluster over it. The driver
// mutates the world's graph, so every rep regenerates the same world
// from the seed and draws fresh events.
func (r *run) churnRep(rep int, first bool) (*rtroute.ChurnClusterResult, error) {
	t0 := time.Now()
	w, err := r.newWorld()
	if err != nil {
		return nil, err
	}
	worldWall := time.Since(t0)
	if first {
		// Price the pristine plane before churn moves the graph.
		r.reportQuality(r.sampleQuality(w.sys, w.s6, nil, r.qualityPairs(qualitySample)), w.sizes)
	}
	id := r.tr.begin("rtroute.RunChurnCluster")
	t0 = time.Now()
	res, err := rtroute.RunChurnCluster(w.sys, r.churnConfig(rep))
	wall := time.Since(t0)
	r.tr.end(id)
	if err != nil {
		// The driver errors on a failed certification, a broken
		// accounting identity or a lossy stable window.
		r.attempted++
		r.fail(1, "rep %d: %v", rep, err)
		return nil, err
	}
	r.attempted += res.Issued
	if !res.Certified {
		r.fail(1, "rep %d: run not certified", rep)
	}
	if res.Issued != res.Served+res.Drops+res.Misroutes {
		r.fail(1, "rep %d: issued %d != served %d + drops %d + misroutes %d", rep, res.Issued, res.Served, res.Drops, res.Misroutes)
	}
	r.lost += res.Drops + res.Misroutes
	r.add("setup_s", (worldWall + wall - time.Duration(res.ElapsedNs)).Seconds())
	r.add("build_s", w.buildS)
	var dirty float64
	for _, name := range []string{"rt_per_s", "fire_rt_per_s", "repair_ms"} {
		r.perEvent[name] = true
	}
	for _, row := range res.BatchRows {
		// A batch's serving windows: under fire, then stable. The
		// certification between them is the check, not the product.
		r.add("rt_per_s", float64(row.FireServed+row.StableIssued)/(float64(row.FireNs+row.StableNs)/1e9))
		r.add("fire_rt_per_s", float64(row.FireIssued)/(float64(row.FireNs)/1e9))
		r.add("repair_ms", float64(row.RepairNsMax)/1e6)
		dirty += row.DirtyFrac
	}
	fmt.Fprintf(r.log, "rep %d: %d batches  fire %.0f rt/s  stable %.0f rt/s  repair max %.1f ms  dirty %.1f%%  drops %d misroutes %d of %d issued\n",
		rep, len(res.BatchRows), res.FireRTPerSec, res.StableRTPerSec, float64(res.RepairNsMax)/1e6,
		100*dirty/float64(len(res.BatchRows)), res.Drops, res.Misroutes, res.Issued)
	return res, nil
}

func measureChurn(r *run) error {
	// Set-up and measurement alternate (one world per RunChurnCluster),
	// so setup_s has one reading per rep; only the driver's ElapsedNs
	// counts against the budget.
	return r.reps(false, func(rep int, _ bool) (time.Duration, error) {
		res, err := r.churnRep(rep, rep == 1)
		if err != nil {
			return 0, err
		}
		return time.Duration(res.ElapsedNs), nil
	})
}

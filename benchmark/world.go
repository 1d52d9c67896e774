package main

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"syscall"
	"time"

	"rtroute"
	"rtroute/internal/graph"
	"rtroute/internal/sim"
	"rtroute/internal/traffic"
)

// run is one workload's measurement in this process.
type run struct {
	wl      workload
	seed    int64
	seconds float64 // measured-phase budget
	nproc   int
	tr      *tracer // nil unless traced
	log     io.Writer

	vals      map[string][]float64 // per-metric readings, one per rep (or one in all), as the clock gave them
	speeds    []float64            // calibration readings, one per section boundary
	samples   map[string]int       // pooled sample counts behind percentile metrics
	perEvent  map[string]bool      // metrics whose readings are one per churn event, unlike by nature
	attempted int64
	failed    int64 // operations that failed a correctness check
	// lost counts roundtrips the fabric dropped or misrouted, typed and
	// accounted, while repairing under fire — the behaviour the system
	// promises in place of a hang, so not a failed check, but part of
	// fail_ratio, whose ceiling is one.
	lost     int64
	failures []string
}

func newRun(wl workload, seed int64, seconds float64, nproc int, log io.Writer) *run {
	return &run{
		wl: wl, seed: seed, seconds: seconds, nproc: nproc, log: log,
		vals: make(map[string][]float64), samples: make(map[string]int), perEvent: make(map[string]bool),
	}
}

// add records one more reading of a metric.
func (r *run) add(name string, v float64) { r.vals[name] = append(r.vals[name], v) }

// set replaces a metric's readings with one.
func (r *run) set(name string, v float64) { r.vals[name] = []float64{v} }

// value is a metric's reported figure: the median over its reps.
func (r *run) value(name string) float64 { return median(r.vals[name]) }

// fail records a failed correctness check covering ops operations.
func (r *run) fail(ops int64, format string, args ...any) {
	r.failed += max(ops, 1)
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// timed runs f inside a trace span (free when untraced) and returns
// its wall time.
func (r *run) timed(name string, f func() error) (time.Duration, error) {
	id := r.tr.begin(name)
	t0 := time.Now()
	err := f()
	wall := time.Since(t0)
	r.tr.end(id)
	return wall, err
}

// span is timed for callers that keep their own clock.
func (r *run) span(name string, f func() error) error {
	_, err := r.timed(name, f)
	return err
}

// budget is the measured-phase allowance as a duration.
func (r *run) budget() time.Duration { return time.Duration(r.seconds * float64(time.Second)) }

// reps runs rep once discarded (the warm-up, when warmup is set) and
// then measured reps while the next one still fits the run's --seconds,
// at least once. Only the measured part of measured reps counts against
// the budget. A calibration reading precedes each rep (and leaves it a
// swept heap, so that a collection of the previous rep's garbage does
// not land in this one's clock).
func (r *run) reps(warmup bool, rep func(i int, warm bool) (measured time.Duration, err error)) error {
	if warmup {
		if _, err := rep(0, true); err != nil { // a warm rep records nothing
			return err
		}
	}
	var used time.Duration
	for i := 1; ; i++ {
		if r.tr != nil {
			r.tr.rep = i
		}
		r.calibrate()
		id := r.tr.begin("rep")
		last, err := rep(i, false)
		r.tr.end(id)
		if err != nil {
			return err
		}
		used += last
		if r.wl.toy || used+last > r.budget() {
			// A run of one long rep would rest on two readings: take a
			// few more on the way out.
			for k := 0; k < 3; k++ {
				r.calibrate()
			}
			return nil
		}
	}
}

// world is what every workload stands on: the seeded graph and naming,
// the System over it, the StretchSix scheme and its snapshot.
type world struct {
	g      *graph.Graph
	naming *rtroute.Naming
	sys    *rtroute.System
	s6     rtroute.Scheme
	blob   []byte
	sizes  []int
	buildS float64 // NewSystem (connectivity + oracle) + Build + MarshalSchemeSizes
}

// worldSeed draws what a workload *is* beside its sizes: the topology,
// the naming and (with an offset) the churn event stream. They are the
// same in every run. The run's --seed draws what is asked of that
// world: the scheme's own random choices (centers, block assignment),
// the request pairs and Zipf ranking, the quality sample. Were the
// world drawn from --seed too, churn-n512 alone would spread +-20%
// between seeds — one event dirties anything from 1% to 30% of the
// nodes, and a run sees twenty — which no bound under 0.25 survives.
const worldSeed = 1

// newGraph generates the workload's network and naming.
func (r *run) newGraph() (*graph.Graph, *rtroute.Naming, error) {
	wl := r.wl
	rng := rand.New(rand.NewSource(worldSeed))
	var g *graph.Graph
	var naming *rtroute.Naming
	err := r.span("graph.RandomSC", func() error {
		g = rtroute.RandomSC(wl.n, wl.deg*wl.n, wl.maxW, rng)
		if wl.churnRegime {
			// Max/min weight ratio under 2: no single edge dominates its
			// head's entry, so an event's affected set reflects real path
			// diversity (cmd/rtbench's E17 regime).
			for u := 0; u < wl.n; u++ {
				for _, e := range g.Out(graph.NodeID(u)) {
					if err := g.SetEdgeWeight(graph.NodeID(u), e.To, 33+(e.Weight-1)%32); err != nil {
						return err
					}
				}
			}
		}
		naming = rtroute.RandomNaming(wl.n, rng)
		return nil
	})
	return g, naming, err
}

func (r *run) systemConfig() rtroute.SystemConfig {
	if r.wl.churnRegime {
		return rtroute.SystemConfig{Metric: rtroute.MetricLazy}
	}
	return rtroute.SystemConfig{}
}

// newWorld builds the workload's world; its build share (oracle,
// scheme, snapshot with per-node sizes) is the universal build_s.
func (r *run) newWorld() (*world, error) {
	g, naming, err := r.newGraph()
	if err != nil {
		return nil, err
	}
	w := &world{g: g, naming: naming}
	t0 := time.Now()
	err = r.span("rtroute.NewSystem", func() (err error) {
		w.sys, err = rtroute.NewSystemWith(g, naming, r.systemConfig())
		return err
	})
	if err != nil {
		return nil, err
	}
	err = r.span("rtroute.Build/StretchSix", func() (err error) {
		w.s6, err = w.sys.Build(rtroute.StretchSix, rtroute.WithSeed(r.seed+1))
		return err
	})
	if err != nil {
		return nil, err
	}
	err = r.span("rtroute.MarshalSchemeSizes", func() (err error) {
		w.blob, w.sizes, err = rtroute.MarshalSchemeSizes(w.s6)
		return err
	})
	w.buildS = time.Since(t0).Seconds()
	return w, err
}

// setUps times set-up — everything before the first timed operation —
// `times` times and keeps the last state for the measurement; earlier
// states are torn down first. Each set-up also reports its build share,
// when it has one.
func setUps[T any](r *run, times int, setup func() (T, float64, error), teardown func(T) error) (T, error) {
	var state T
	if r.wl.toy {
		times = 1
	}
	r.calibrate() // set-ups are short: one reading before them, the next before the first rep
	for i := 0; i < times; i++ {
		if i > 0 {
			if teardown != nil {
				if err := teardown(state); err != nil {
					return state, err
				}
			}
			// Let the previous state go before building the next: two
			// worlds alive at once double the footprint.
			var none T
			state = none
		}
		var buildS float64
		wall, err := r.timed("setup", func() (err error) {
			state, buildS, err = setup()
			return err
		})
		if err != nil {
			return state, err
		}
		r.add("setup_s", wall.Seconds())
		if buildS > 0 { // build-1k builds in its reps, not its set-up
			r.add("build_s", buildS)
		}
	}
	return state, nil
}

// trafficSeed separates the request streams of a run's reps from one
// another and from every other run's.
func (r *run) trafficSeed(rep int) int64 { return r.seed*1000 + int64(rep) }

// namePair is one requested roundtrip between TINN names.
type namePair struct{ src, dst int32 }

// qualityPairs draws k seeded uniform pairs. On the lazy oracle a
// stretch lookup costs two Dijkstras per distinct source, so sources
// there come from a 32-name subset.
func (r *run) qualityPairs(k int) []namePair {
	rng := rand.New(rand.NewSource(r.trafficSeed(-1)))
	n := int32(r.wl.n)
	var sources []int32
	if r.wl.churnRegime {
		for _, v := range rng.Perm(int(n))[:min(32, int(n))] {
			sources = append(sources, int32(v))
		}
	}
	pairs := make([]namePair, k)
	for i := range pairs {
		src := rng.Int31n(n)
		if sources != nil {
			src = sources[rng.Intn(len(sources))]
		}
		dst := rng.Int31n(n - 1)
		if dst >= src {
			dst++
		}
		pairs[i] = namePair{src, dst}
	}
	return pairs
}

// trafficPairs draws k pairs from the workload's own distribution.
func trafficPairs(spec traffic.Spec, n int, seed int64, k int) ([]namePair, error) {
	wl, err := traffic.NewWorkload(spec, n, seed)
	if err != nil {
		return nil, err
	}
	gen := wl.Generator(0)
	pairs := make([]namePair, k)
	for i := range pairs {
		pairs[i].src, pairs[i].dst = gen.Next()
	}
	return pairs, nil
}

// quality is one plane's sampled routing quality.
type quality struct {
	max, mean float64 // roundtrip stretch over the sample
	hops      int64
}

// qualitySample is how many uniform pairs price a plane's stretch.
const qualitySample = 20000

// sampleQuality routes the pairs through p one at a time with a reused
// header and prices every roundtrip against the oracle. A pair that
// fails to deliver counts as a failed operation. When ref is non-nil
// each roundtrip is replayed on it and must agree on both legs' totals
// — the route-identity check between a built scheme and its restored
// Deployment.
func (r *run) sampleQuality(sys *rtroute.System, p, ref sim.Plane, pairs []namePair) quality {
	var q quality
	r.attempted += int64(len(pairs))
	var sum float64
	var priced int
	var hdr, refHdr sim.Header
	for _, pr := range pairs {
		out, back, h, err := sim.RoundtripFlightReusing(p, hdr, pr.src, pr.dst, 0)
		hdr = h
		if err != nil {
			r.fail(1, "roundtrip %d->%d failed to deliver: %v", pr.src, pr.dst, err)
			continue
		}
		q.hops += int64(out.Hops + back.Hops)
		if ref != nil {
			o2, b2, h2, err := sim.RoundtripFlightReusing(ref, refHdr, pr.src, pr.dst, 0)
			refHdr = h2
			if err != nil || o2.Hops != out.Hops || o2.Weight != out.Weight || b2.Hops != back.Hops || b2.Weight != back.Weight {
				r.fail(1, "roundtrip %d->%d: restored deployment routes differently from the built scheme (err %v)", pr.src, pr.dst, err)
				continue
			}
		}
		dist := sys.R(pr.src, pr.dst)
		if dist <= 0 || dist >= rtroute.Inf {
			continue
		}
		s := float64(out.Weight+back.Weight) / float64(dist)
		sum += s
		priced++
		q.max = max(q.max, s)
	}
	if priced > 0 {
		q.mean = sum / float64(priced)
	}
	return q
}

// routePass routes the pairs through p with a reused header and returns
// the wall; sampleQuality is what checks that they deliver.
func routePass(p sim.Plane, pairs []namePair) time.Duration {
	var hdr sim.Header
	begin := time.Now()
	for _, pr := range pairs {
		_, _, hdr, _ = sim.RoundtripFlightReusing(p, hdr, pr.src, pr.dst, 0)
	}
	return time.Since(begin)
}

// stretchBound is the paper's Theorem 6 guarantee for StretchSix.
const stretchBound = 6.0

// reportQuality publishes the StretchSix quality numbers every workload
// carries, and enforces the paper's bound on them.
func (r *run) reportQuality(q quality, sizes []int) {
	r.set("stretch_max", q.max)
	r.set("stretch_mean", q.mean)
	r.checkStretch("sampled", q.max)
	r.set("node_bytes_max", float64(slices.Max(sizes)))
}

func (r *run) checkStretch(what string, s float64) {
	if s > stretchBound+1e-9 {
		r.fail(1, "StretchSix %s stretch %.4f exceeds the bound %g", what, s, stretchBound)
	}
}

// peakRSSMiB is this process's max resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process CPU time (user + system) used so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

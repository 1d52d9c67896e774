package traffic

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"rtroute/internal/eval"
	"rtroute/internal/graph"
	"rtroute/internal/sim"
)

// Config parameterizes one engine run.
type Config struct {
	// Workers is the number of serving goroutines (0 = GOMAXPROCS).
	Workers int
	// Packets is the total number of roundtrips to serve; required > 0.
	Packets int64
	// Workload selects the pair distribution (zero value = uniform).
	Workload Spec
	// Seed makes the workload reproducible: same (Seed, Workers,
	// Workload, Packets) serves the identical pair multiset.
	Seed int64
	// Oracle, when non-nil, enables stretch accounting: measured
	// roundtrip weight over true roundtrip distance. The oracle is
	// consulted only in the post-run merge — never on the hot path —
	// grouped by source so a lazy oracle pays at most two Dijkstras per
	// distinct source.
	Oracle graph.DistanceOracle
	// SampleEvery records every k-th packet of each worker for stretch
	// accounting (0 or 1 = every packet). Counters and histograms
	// always cover every packet.
	SampleEvery int
}

// Result aggregates one engine run.
type Result struct {
	Workers int
	Packets int64
	Hops    int64
	Weight  int64
	Elapsed time.Duration
	HopHist eval.Hist // per-roundtrip hop counts
	HdrHist eval.Hist // per-roundtrip peak header words
	Stretch eval.Quantiles
	Sampled int // packets in the stretch sample
}

// PacketsPerSec returns the serving rate.
func (r *Result) PacketsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Packets) / r.Elapsed.Seconds()
}

// Sample is one recorded roundtrip for the stretch post-pass
// (StretchQuantiles): the pair in topological indices plus the measured
// roundtrip weight. The cluster engine records the same samples, so one
// post-pass serves both serving layers.
type Sample struct {
	Src, Dst graph.NodeID
	Weight   graph.Dist
}

// shard is one worker's private state: RNG, counters, histograms,
// samples. Each shard is its own heap allocation touched by exactly one
// goroutine; nothing is shared until the merge after the run.
type shard struct {
	packets int64
	hops    int64
	weight  int64
	hopHist eval.Hist
	hdrHist eval.Hist
	samples []Sample
	err     error
}

// Run serves cfg.Packets roundtrips through the compiled plane and
// merges the shards. The pair multiset — and therefore every
// distribution in the Result — is a pure function of (Seed, Workers,
// Workload, Packets); only Elapsed and the rates vary between runs.
func Run(pl *Plane, cfg Config) (*Result, error) {
	if cfg.Packets <= 0 {
		return nil, fmt.Errorf("traffic: packets must be > 0, got %d", cfg.Packets)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	wl, err := NewWorkload(cfg.Workload, pl.N(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	stride := int64(cfg.SampleEvery)
	if stride < 1 {
		stride = 1
	}
	quotas := SplitQuota(cfg.Packets, workers)
	shards := make([]*shard, workers)

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		sh := &shard{}
		shards[w] = sh
		gen := wl.Generator(w)
		quota := quotas[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if cfg.Oracle != nil {
				sh.samples = make([]Sample, 0, quota/stride+1)
			}
			// One header serves the worker's whole stream: the first
			// roundtrip allocates it, every later one resets it in place.
			var hdr sim.Header
			for i := int64(0); i < quota; i++ {
				src, dst := gen.Next()
				var out, back sim.Flight
				var err error
				out, back, hdr, err = sim.RoundtripFlightReusing(pl, hdr, src, dst, 0)
				if err != nil {
					sh.err = fmt.Errorf("traffic: worker %d packet %d: %w", w, i, err)
					return
				}
				weight := out.Weight + back.Weight
				hops := out.Hops + back.Hops
				sh.packets++
				sh.hops += int64(hops)
				sh.weight += int64(weight)
				sh.hopHist.Add(hops)
				hw := out.MaxHeaderWords
				if back.MaxHeaderWords > hw {
					hw = back.MaxHeaderWords
				}
				sh.hdrHist.Add(hw)
				if cfg.Oracle != nil && i%stride == 0 {
					sh.samples = append(sh.samples, Sample{Src: pl.NodeOf(src), Dst: pl.NodeOf(dst), Weight: weight})
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &Result{Workers: workers, Elapsed: elapsed}
	var samples []Sample
	for _, sh := range shards {
		if sh.err != nil {
			return nil, sh.err
		}
		res.Packets += sh.packets
		res.Hops += sh.hops
		res.Weight += sh.weight
		res.HopHist.Merge(&sh.hopHist)
		res.HdrHist.Merge(&sh.hdrHist)
		samples = append(samples, sh.samples...)
	}
	if cfg.Oracle != nil {
		res.Stretch, err = StretchQuantiles(cfg.Oracle, samples)
		if err != nil {
			return nil, err
		}
		res.Sampled = len(samples)
	}
	return res, nil
}

// SplitQuota divides total packets across workers, front-loading
// remainders: worker w serves total/workers plus one when
// w < total%workers. The replay tests and the cluster engine's
// injector streams mirror this partition, so it is part of the
// determinism contract shared by both serving layers.
func SplitQuota(total int64, workers int) []int64 {
	quotas := make([]int64, workers)
	base, rem := total/int64(workers), total%int64(workers)
	for w := range quotas {
		quotas[w] = base
		if int64(w) < rem {
			quotas[w]++
		}
	}
	return quotas
}

// StretchQuantiles computes measured-over-true roundtrip stretch for
// the samples. Samples are grouped by source so each distinct source
// costs two oracle rows (one forward, one reverse) no matter how many
// packets it sent — the same anchored-row discipline the scheme
// constructions use, which keeps a lazy oracle's work proportional to
// distinct sources, not packets. The sample order does not matter: the
// pass sorts internally, so concurrently collected shards fold into the
// same quantiles as a sequential replay.
func StretchQuantiles(m graph.DistanceOracle, samples []Sample) (eval.Quantiles, error) {
	sort.Slice(samples, func(i, j int) bool {
		if samples[i].Src != samples[j].Src {
			return samples[i].Src < samples[j].Src
		}
		return samples[i].Dst < samples[j].Dst
	})
	xs := make([]float64, 0, len(samples))
	var fwd, rev []graph.Dist
	cur := graph.NodeID(-1)
	for _, s := range samples {
		if s.Src != cur {
			cur = s.Src
			fwd = m.FromSource(cur)
			rev = m.ToSink(cur)
		}
		r := graph.RFromRows(fwd, rev, s.Dst)
		if r <= 0 || r >= graph.Inf {
			return eval.Quantiles{}, fmt.Errorf("traffic: degenerate roundtrip distance for (%d,%d)", s.Src, s.Dst)
		}
		xs = append(xs, float64(s.Weight)/float64(r))
	}
	return eval.QuantilesOf(xs), nil
}

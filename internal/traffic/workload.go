// Package traffic is the concurrent routed-traffic engine: it compiles a
// built routing scheme into a frozen forwarding plane, generates
// deterministic skewed workloads, and drives millions of roundtrips
// through the plane from sharded workers — answering "how many packets
// per second can a built scheme serve, and what stretch do real, skewed
// workloads actually see?" (the serving-plane question the ROADMAP's
// north star poses, and the lens of Krioukov et al.'s critique that
// stretch only matters as experienced under traffic).
//
// Architecture (worker-sharded, ddtxn-style):
//
//   - Plane: a certified read-only view of one scheme's tables plus its
//     header factories (sim.Plane), sealed so many goroutines consult it
//     with zero locks.
//   - Workload: a seeded factory of per-worker pair Generators. The
//     shared skew structure (Zipf popularity ranking, hotspot set) is
//     drawn once from the seed; each worker's stream is an independent
//     deterministic RNG, so a run is reproducible pair-for-pair.
//   - Engine (Run): W workers, per-worker RNG and stats shards — no
//     shared atomics or locks on the hot path — merged into aggregate
//     packets/s, hops/s, stretch quantiles and hop/header histograms.
package traffic

import (
	"fmt"
	"math"
	"math/rand"
)

// Kind names a workload pair distribution.
type Kind string

const (
	// Uniform draws independent uniform (src, dst) pairs — every
	// ordered pair equally likely, the classical all-pairs view.
	Uniform Kind = "uniform"
	// Zipf draws destinations from a YCSB-style Zipf popularity ranking
	// (à la ddtxn's zipf.go) with uniform sources: a few names soak up
	// most of the traffic, as real request logs do.
	Zipf Kind = "zipf"
	// Hotspot sends a fixed fraction of packets to a small hot set of
	// destinations and the rest uniformly.
	Hotspot Kind = "hotspot"
	// RPC models roundtrip request/response flows: each worker sticks
	// to one (client, server) pair for a geometrically distributed
	// number of consecutive roundtrips before opening a new flow.
	RPC Kind = "rpc"
)

// Spec parameterizes a workload. The zero value of every field selects a
// sensible default, so Spec{Kind: Zipf} is a complete spec.
type Spec struct {
	Kind Kind
	// ZipfTheta is the YCSB skew parameter, 0 <= theta < 1; higher is
	// more skewed, and 0 is a valid value meaning an unskewed
	// popularity ranking. Zipf workloads only.
	ZipfTheta float64
	// HotFraction is the fraction of packets aimed at the hot set
	// (default 0.9). Hotspot workloads only.
	HotFraction float64
	// HotSetSize is the number of hot destinations (default
	// max(1, n/64)). Hotspot workloads only.
	HotSetSize int
	// MeanFlowLength is the mean number of consecutive roundtrips per
	// RPC flow (default 8). RPC workloads only.
	MeanFlowLength int
}

// Generator draws (srcName, dstName) pairs with srcName != dstName.
// Generators are NOT safe for concurrent use: the engine hands each
// worker its own.
type Generator interface {
	Next() (srcName, dstName int32)
}

// Workload is a validated spec bound to a name universe and seed. The
// skew structure shared by all workers (popularity ranking, hot set,
// Zipf constants) is derived once from the seed; Generator(w) then
// yields worker w's reproducible pair stream.
type Workload struct {
	spec Spec
	n    int
	seed int64
	rank []int32 // popularity rank -> name (zipf, hotspot)
	zipf *zipfDist
}

// NewWorkload validates the spec over a universe of n names {0..n-1}.
func NewWorkload(spec Spec, n int, seed int64) (*Workload, error) {
	if n < 2 {
		return nil, fmt.Errorf("traffic: workload needs at least 2 names, got %d", n)
	}
	if spec.Kind == "" {
		spec.Kind = Uniform
	}
	w := &Workload{spec: spec, n: n, seed: seed}
	shared := rand.New(rand.NewSource(seed))
	switch spec.Kind {
	case Uniform:
	case Zipf:
		if w.spec.ZipfTheta < 0 || w.spec.ZipfTheta >= 1 {
			return nil, fmt.Errorf("traffic: zipf theta %v outside [0,1)", w.spec.ZipfTheta)
		}
		w.rank = shuffledNames(n, shared)
		w.zipf = newZipfDist(n, w.spec.ZipfTheta)
	case Hotspot:
		if spec.HotFraction == 0 {
			w.spec.HotFraction = 0.9
		}
		if w.spec.HotFraction <= 0 || w.spec.HotFraction > 1 {
			return nil, fmt.Errorf("traffic: hot fraction %v outside (0,1]", w.spec.HotFraction)
		}
		if spec.HotSetSize == 0 {
			w.spec.HotSetSize = n / 64
			if w.spec.HotSetSize < 1 {
				w.spec.HotSetSize = 1
			}
		}
		if w.spec.HotSetSize < 1 || w.spec.HotSetSize > n {
			return nil, fmt.Errorf("traffic: hot set size %d outside [1,%d]", w.spec.HotSetSize, n)
		}
		w.rank = shuffledNames(n, shared)
	case RPC:
		if spec.MeanFlowLength == 0 {
			w.spec.MeanFlowLength = 8
		}
		if w.spec.MeanFlowLength < 1 {
			return nil, fmt.Errorf("traffic: mean flow length %d < 1", w.spec.MeanFlowLength)
		}
	default:
		return nil, fmt.Errorf("traffic: unknown workload kind %q", spec.Kind)
	}
	return w, nil
}

// Generator returns worker's deterministic pair stream. Calling it again
// with the same worker index restarts the identical stream — the replay
// hook the engine-vs-sequential equivalence tests use.
func (w *Workload) Generator(worker int) Generator {
	// Distinct odd stride keeps per-worker streams decorrelated while
	// remaining a pure function of (seed, worker).
	rng := rand.New(rand.NewSource(w.seed + 0x9E3779B9*int64(worker+1)))
	switch w.spec.Kind {
	case Zipf:
		return &zipfGen{n: w.n, rng: rng, rank: w.rank, dist: w.zipf}
	case Hotspot:
		hot := w.rank[:w.spec.HotSetSize]
		return &hotspotGen{n: w.n, rng: rng, hot: hot, frac: w.spec.HotFraction}
	case RPC:
		return &rpcGen{n: w.n, rng: rng, cont: 1 - 1/float64(w.spec.MeanFlowLength)}
	default:
		return &uniformGen{n: w.n, rng: rng}
	}
}

func shuffledNames(n int, rng *rand.Rand) []int32 {
	rank := make([]int32, n)
	for i := range rank {
		rank[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { rank[i], rank[j] = rank[j], rank[i] })
	return rank
}

type uniformGen struct {
	n   int
	rng *rand.Rand
}

func (g *uniformGen) Next() (int32, int32) {
	src := int32(g.rng.Intn(g.n))
	dst := int32(g.rng.Intn(g.n - 1))
	if dst >= src {
		dst++
	}
	return src, dst
}

// zipfDist holds the constants of the YCSB Zipf sampler (Gray et al.,
// "Quickly generating billion-record synthetic databases"): rank 0 is
// the most popular, with P(rank) ∝ 1/(rank+1)^theta.
type zipfDist struct {
	n                         int
	zetan, alpha, eta, powHlf float64
}

func zeta(n int, theta float64) float64 {
	var sum float64
	for i := 1; i <= n; i++ {
		sum += math.Pow(1/float64(i), theta)
	}
	return sum
}

func newZipfDist(n int, theta float64) *zipfDist {
	zetan := zeta(n, theta)
	return &zipfDist{
		n:      n,
		zetan:  zetan,
		alpha:  1 / (1 - theta),
		eta:    (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/zetan),
		powHlf: math.Pow(0.5, theta),
	}
}

func (z *zipfDist) rank(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.powHlf {
		return 1
	}
	r := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

type zipfGen struct {
	n    int
	rng  *rand.Rand
	rank []int32
	dist *zipfDist
}

func (g *zipfGen) Next() (int32, int32) {
	dst := g.rank[g.dist.rank(g.rng)]
	src := int32(g.rng.Intn(g.n - 1))
	if src >= dst {
		src++
	}
	return src, dst
}

type hotspotGen struct {
	n    int
	rng  *rand.Rand
	hot  []int32
	frac float64
}

func (g *hotspotGen) Next() (int32, int32) {
	var dst int32
	if g.rng.Float64() < g.frac {
		dst = g.hot[g.rng.Intn(len(g.hot))]
	} else {
		dst = int32(g.rng.Intn(g.n))
	}
	src := int32(g.rng.Intn(g.n - 1))
	if src >= dst {
		src++
	}
	return src, dst
}

type rpcGen struct {
	n        int
	rng      *rand.Rand
	cont     float64 // probability a flow continues; mean length 1/(1-cont)
	src, dst int32
	left     int
}

func (g *rpcGen) Next() (int32, int32) {
	if g.left == 0 {
		g.src = int32(g.rng.Intn(g.n))
		g.dst = int32(g.rng.Intn(g.n - 1))
		if g.dst >= g.src {
			g.dst++
		}
		g.left = 1
		for g.rng.Float64() < g.cont {
			g.left++
		}
	}
	g.left--
	return g.src, g.dst
}

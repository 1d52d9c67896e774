package rtroute

import (
	"fmt"
	"math/rand"
	"sync"

	"rtroute/internal/core"
	"rtroute/internal/cover"
	"rtroute/internal/rtz"
	"rtroute/internal/wire"
)

// SchemeKind selects which routing scheme System.Build constructs.
type SchemeKind = core.Kind

// Scheme kinds for Build. StretchSix, ExStretch and Polynomial are the
// paper's three TINN schemes; RTZStretch3 and HopSubstrate are the
// name-dependent substrate planes (servable baselines).
const (
	StretchSix   = core.KindStretchSix
	ExStretch    = core.KindExStretch
	Polynomial   = core.KindPolynomial
	RTZStretch3  = core.KindRTZ
	HopSubstrate = core.KindHop
)

// BuildConfig collects every construction knob across all scheme kinds.
// Zero values select each scheme's defaults. Most callers should use
// Build with functional options instead of filling this struct directly.
type BuildConfig struct {
	// Seed drives all randomized construction (center sampling, block
	// assignment). Ignored by Polynomial, whose construction is
	// deterministic.
	Seed int64
	// K is the tradeoff parameter for ExStretch, Polynomial and
	// HopSubstrate (default 2).
	K int
	// ScaleBase is the cover scale ladder ratio (ExStretch, Polynomial,
	// HopSubstrate; default 2).
	ScaleBase float64
	// Variant selects the sparse-cover construction (default
	// Awerbuch-Peleg).
	Variant CoverVariant
	// Blocks configures the Lemma 1/4 dictionary assignment (StretchSix,
	// ExStretch).
	Blocks BlockOptions
	// ViaSource selects the §2.2 StretchSix variant that fetches the
	// destination's address back to the source before routing.
	ViaSource bool
	// DirectReturn selects the §3.5 ExStretch variant that carries the
	// source's globally valid label instead of the waypoint stack.
	DirectReturn bool
	// BuildWorkers parallelizes per-node table construction
	// (0 = GOMAXPROCS, 1 = sequential). Output is identical either way.
	BuildWorkers int
}

// BuildOption tunes one Build call.
type BuildOption func(*BuildConfig)

// WithSeed sets the construction seed.
func WithSeed(seed int64) BuildOption { return func(c *BuildConfig) { c.Seed = seed } }

// WithK sets the tradeoff parameter k >= 2.
func WithK(k int) BuildOption { return func(c *BuildConfig) { c.K = k } }

// WithScaleBase sets the cover scale ladder ratio.
func WithScaleBase(base float64) BuildOption { return func(c *BuildConfig) { c.ScaleBase = base } }

// WithCoverVariant selects the sparse-cover construction.
func WithCoverVariant(v CoverVariant) BuildOption { return func(c *BuildConfig) { c.Variant = v } }

// WithBlocks configures the dictionary block assignment.
func WithBlocks(b BlockOptions) BuildOption { return func(c *BuildConfig) { c.Blocks = b } }

// WithViaSource selects the §2.2 StretchSix variant.
func WithViaSource() BuildOption { return func(c *BuildConfig) { c.ViaSource = true } }

// WithDirectReturn selects the §3.5 ExStretch variant.
func WithDirectReturn() BuildOption { return func(c *BuildConfig) { c.DirectReturn = true } }

// Build constructs a routing scheme of the given kind over the system's
// graph, oracle and naming. It is the single entry point: every knob is
// a functional option, and every kind — the three TINN schemes and the
// two substrate baselines — comes back as a Scheme (forwarding plane +
// roundtrip tracer + table accounting).
//
//	s6, _  := sys.Build(rtroute.StretchSix, rtroute.WithSeed(42))
//	ex, _  := sys.Build(rtroute.ExStretch, rtroute.WithK(3), rtroute.WithSeed(42))
//	p, _   := sys.Build(rtroute.Polynomial, rtroute.WithK(2))
//	rtz, _ := sys.Build(rtroute.RTZStretch3, rtroute.WithSeed(42))
func (s *System) Build(kind SchemeKind, opts ...BuildOption) (Scheme, error) {
	cfg := BuildConfig{K: 2}
	for _, o := range opts {
		o(&cfg)
	}
	return s.BuildWith(kind, cfg)
}

// BuildWith is Build with an explicit configuration struct, for callers
// that assemble configurations programmatically.
func (s *System) BuildWith(kind SchemeKind, cfg BuildConfig) (Scheme, error) {
	if cfg.K == 0 {
		cfg.K = 2
	}
	base := cfg.ScaleBase
	if base <= 1 {
		base = 2
	}
	rng := func() *rand.Rand { return rand.New(rand.NewSource(cfg.Seed)) }
	switch kind {
	case StretchSix:
		return core.NewStretchSix(s.Graph, s.Metric, s.Naming, rng(), core.Stretch6Config{
			Blocks:       cfg.Blocks,
			ViaSource:    cfg.ViaSource,
			BuildWorkers: cfg.BuildWorkers,
		})
	case ExStretch:
		hier, err := s.hierarchy(cfg.K, base, cfg.Variant)
		if err != nil {
			return nil, err
		}
		return core.NewExStretch(s.Graph, s.Metric, s.Naming, rng(), core.ExStretchConfig{
			K:            cfg.K,
			ScaleBase:    cfg.ScaleBase,
			Variant:      cfg.Variant,
			Blocks:       cfg.Blocks,
			DirectReturn: cfg.DirectReturn,
			BuildWorkers: cfg.BuildWorkers,
			Hierarchy:    hier,
		})
	case Polynomial:
		hier, err := s.hierarchy(cfg.K, base, cfg.Variant)
		if err != nil {
			return nil, err
		}
		return core.NewPolynomialStretch(s.Graph, s.Metric, s.Naming, core.PolyConfig{
			K:            cfg.K,
			ScaleBase:    cfg.ScaleBase,
			Variant:      cfg.Variant,
			BuildWorkers: cfg.BuildWorkers,
			Hierarchy:    hier,
		})
	case RTZStretch3:
		sub, err := rtz.NewWith(s.Graph, s.Metric, rng(), rtz.Config{}, rtz.Pass{Workers: cfg.BuildWorkers})
		if err != nil {
			return nil, err
		}
		return core.NewRTZPlane(sub, s.Naming)
	case HopSubstrate:
		hier, err := s.hierarchy(cfg.K, base, cfg.Variant)
		if err != nil {
			return nil, err
		}
		return core.NewHopPlane(s.Graph, hier, s.Naming)
	default:
		return nil, fmt.Errorf("rtroute: unknown scheme kind %v", kind)
	}
}

// hierarchyCache is the one cover hierarchy a System keeps, with the
// key it was built for.
type hierarchyCache struct {
	mu  sync.Mutex
	key hierarchyKey
	h   *cover.Hierarchy
}

// hierarchyKey is what a hierarchy depends on: the graph at one mutation
// generation, the oracle (by identity) and the construction parameters.
type hierarchyKey struct {
	g       *Graph
	gen     uint64
	m       *LazyOracle
	k       int
	base    float64
	variant CoverVariant
}

// hierarchy returns the cover hierarchy for (k, base, variant) over the
// system's graph and oracle. The ExStretch, Polynomial and HopSubstrate
// builds of one System share it: it is built on first use and kept
// until a build asks for another key, so a reweighting, or a copy of
// the System over another oracle, builds anew. Without a cache, or over
// an oracle other than a LazyOracle, it builds one and keeps none.
func (s *System) hierarchy(k int, base float64, variant CoverVariant) (*cover.Hierarchy, error) {
	lazy, ok := s.Metric.(*LazyOracle)
	if s.hier == nil || !ok {
		return cover.BuildHierarchy(s.Graph, s.Metric, k, base, variant)
	}
	key := hierarchyKey{g: s.Graph, gen: s.Graph.Generation(), m: lazy, k: k, base: base, variant: variant}
	s.hier.mu.Lock()
	h, hit := s.hier.h, s.hier.key == key
	s.hier.mu.Unlock()
	if hit {
		return h, nil
	}
	// Built outside the lock: two Builds that race here both build the
	// same hierarchy, and the second to finish is the one kept.
	h, err := cover.BuildHierarchy(s.Graph, s.Metric, k, base, variant)
	if err != nil {
		return nil, err
	}
	s.hier.mu.Lock()
	s.hier.key, s.hier.h = key, h
	s.hier.mu.Unlock()
	return h, nil
}

// Deployment is a scheme restored from per-node sections: it
// implements the same forwarding-plane contract as a monolithic scheme
// (sim/traffic drive it identically) while every Forward reads only the
// addressed node's state and the header. Snapshots restored by
// UnmarshalScheme come back as Deployments carrying their per-node
// encoded byte sizes.
type Deployment = core.Deployment

// Deploy encodes a built scheme's per-node sections and restores them as
// a Deployment, certifying that node-local state plus the packet header
// suffice to forward.
func Deploy(p ForwardingPlane) (*Deployment, error) { return core.Deploy(p) }

// MarshalScheme encodes a built scheme (or Deployment) as a
// self-contained versioned binary snapshot: graph, naming, shared
// parameters, and one length-prefixed section per node.
func MarshalScheme(p ForwardingPlane) ([]byte, error) { return wire.MarshalScheme(p) }

// MarshalSchemeSizes is MarshalScheme returning each node's encoded
// section length alongside the blob (one encode pass).
func MarshalSchemeSizes(p ForwardingPlane) ([]byte, []int, error) {
	return wire.MarshalSchemeSizes(p)
}

// UnmarshalScheme restores a snapshot as a Deployment, route-identical
// to the scheme that was marshaled; per-node encoded sizes are
// available via Deployment.EncodedSize.
func UnmarshalScheme(data []byte) (*Deployment, error) { return wire.UnmarshalScheme(data) }

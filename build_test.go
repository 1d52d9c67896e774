// Tests for the unified Build API (every configuration must be
// route-identical to its direct core constructor), the Stretch Inf
// guard, and deployment serving under the traffic engine.
package rtroute

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"rtroute/internal/wire"
	"sync"
	"testing"

	"rtroute/internal/core"
	"rtroute/internal/cover"
	"rtroute/internal/graph"
	"rtroute/internal/rtz"
	"rtroute/internal/sim"
)

// sameSchemeRoutes samples pairs and demands bit-identical roundtrip
// traces from the two planes.
func sameSchemeRoutes(t *testing.T, name string, a, b ForwardingPlane, n, pairs int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < pairs; i++ {
		src := int32(rng.Intn(n))
		dst := int32(rng.Intn(n))
		if src == dst {
			continue
		}
		ta, err := sim.Roundtrip(a, src, dst, 0)
		if err != nil {
			t.Fatalf("%s: reference roundtrip %d->%d: %v", name, src, dst, err)
		}
		tb, err := sim.Roundtrip(b, src, dst, 0)
		if err != nil {
			t.Fatalf("%s: unified roundtrip %d->%d: %v", name, src, dst, err)
		}
		if !reflect.DeepEqual(ta.Out.Path, tb.Out.Path) || !reflect.DeepEqual(ta.Back.Path, tb.Back.Path) ||
			ta.Weight() != tb.Weight() || ta.MaxHeaderWords() != tb.MaxHeaderWords() {
			t.Fatalf("%s: routes diverge for %d->%d", name, src, dst)
		}
	}
}

// withBuildWorkers sets BuildConfig.BuildWorkers, the construction
// parallelism RunChurnCluster sets.
func withBuildWorkers(w int) BuildOption { return func(c *BuildConfig) { c.BuildWorkers = w } }

// TestBuildCoversLegacyConfigs constructs each of the eleven
// configurations the retired per-scheme Build* methods covered two ways
// — the direct core constructor (the reference) and the unified Build
// API — and asserts identical routes and table accounting.
func TestBuildCoversLegacyConfigs(t *testing.T) {
	const n = 28
	sys := newTestSystem(t, 9, n)
	seed := int64(5)
	coreRNG := func() *rand.Rand { return rand.New(rand.NewSource(seed)) }

	cases := []struct {
		name   string
		direct func() (ForwardingPlane, error)
		build  func() (ForwardingPlane, error)
	}{
		{
			"stretch6",
			func() (ForwardingPlane, error) {
				return core.NewStretchSix(sys.Graph, sys.Metric, sys.Naming, coreRNG(), core.Stretch6Config{})
			},
			func() (ForwardingPlane, error) { return sys.Build(StretchSix, WithSeed(seed)) },
		},
		{
			"stretch6-viasource",
			func() (ForwardingPlane, error) {
				return core.NewStretchSix(sys.Graph, sys.Metric, sys.Naming, coreRNG(), core.Stretch6Config{ViaSource: true})
			},
			func() (ForwardingPlane, error) { return sys.Build(StretchSix, WithSeed(seed), WithViaSource()) },
		},
		{
			"stretch6-with",
			func() (ForwardingPlane, error) {
				return core.NewStretchSix(sys.Graph, sys.Metric, sys.Naming, coreRNG(), core.Stretch6Config{
					Blocks: BlockOptions{Boost: 3},
				})
			},
			func() (ForwardingPlane, error) {
				return sys.Build(StretchSix, WithSeed(seed), WithBlocks(BlockOptions{Boost: 3}))
			},
		},
		{
			"exstretch-k3",
			func() (ForwardingPlane, error) {
				return core.NewExStretch(sys.Graph, sys.Metric, sys.Naming, coreRNG(), core.ExStretchConfig{K: 3})
			},
			func() (ForwardingPlane, error) { return sys.Build(ExStretch, WithK(3), WithSeed(seed)) },
		},
		{
			"exstretch-directreturn",
			func() (ForwardingPlane, error) {
				return core.NewExStretch(sys.Graph, sys.Metric, sys.Naming, coreRNG(), core.ExStretchConfig{K: 2, DirectReturn: true})
			},
			func() (ForwardingPlane, error) {
				return sys.Build(ExStretch, WithK(2), WithSeed(seed), WithDirectReturn())
			},
		},
		{
			"exstretch-with",
			func() (ForwardingPlane, error) {
				return core.NewExStretch(sys.Graph, sys.Metric, sys.Naming, coreRNG(), core.ExStretchConfig{
					K: 2, ScaleBase: 1.8, Variant: CoverBallGrowing,
				})
			},
			func() (ForwardingPlane, error) {
				return sys.Build(ExStretch, WithK(2), WithSeed(seed),
					WithScaleBase(1.8), WithCoverVariant(CoverBallGrowing))
			},
		},
		{
			"poly-k2",
			func() (ForwardingPlane, error) {
				return core.NewPolynomialStretch(sys.Graph, sys.Metric, sys.Naming, core.PolyConfig{K: 2})
			},
			func() (ForwardingPlane, error) { return sys.Build(Polynomial, WithK(2)) },
		},
		{
			"poly-variant",
			func() (ForwardingPlane, error) {
				return core.NewPolynomialStretch(sys.Graph, sys.Metric, sys.Naming,
					core.PolyConfig{K: 2, ScaleBase: 1.7, Variant: CoverBallGrowing})
			},
			func() (ForwardingPlane, error) {
				return sys.Build(Polynomial, WithK(2), WithScaleBase(1.7), WithCoverVariant(CoverBallGrowing))
			},
		},
		{
			"poly-with",
			func() (ForwardingPlane, error) {
				return core.NewPolynomialStretch(sys.Graph, sys.Metric, sys.Naming, core.PolyConfig{K: 2, BuildWorkers: 2})
			},
			func() (ForwardingPlane, error) {
				return sys.Build(Polynomial, WithK(2), withBuildWorkers(2))
			},
		},
		{
			"rtz-plane",
			func() (ForwardingPlane, error) {
				sub, err := rtz.New(sys.Graph, sys.Metric, coreRNG(), rtz.Config{})
				if err != nil {
					return nil, err
				}
				return core.NewRTZPlane(sub, sys.Naming)
			},
			func() (ForwardingPlane, error) { return sys.Build(RTZStretch3, WithSeed(seed)) },
		},
		{
			"hop-plane",
			func() (ForwardingPlane, error) {
				h, err := cover.BuildHierarchy(sys.Graph, sys.Metric, 2, 2, CoverAwerbuchPeleg)
				if err != nil {
					return nil, err
				}
				return core.NewHopPlane(sys.Graph, h, sys.Naming)
			},
			func() (ForwardingPlane, error) { return sys.Build(HopSubstrate, WithK(2)) },
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			direct, err := tc.direct()
			if err != nil {
				t.Fatal(err)
			}
			unified, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			sameSchemeRoutes(t, tc.name+"/direct-vs-unified", direct, unified, n, 150, 32)
			ds, us := direct.(Scheme), unified.(Scheme)
			if ds.MaxTableWords() != us.MaxTableWords() || ds.AvgTableWords() != us.AvgTableWords() {
				t.Fatalf("table accounting diverges: direct (%d, %.2f) unified (%d, %.2f)",
					ds.MaxTableWords(), ds.AvgTableWords(), us.MaxTableWords(), us.AvgTableWords())
			}
		})
	}
}

// TestStretchInfUnreachable locks the Stretch guard: a pair with
// infinite roundtrip distance must report +Inf, not a finite ratio
// against the Inf sentinel. Such systems only arise hand-assembled (the
// constructor rejects non-strongly-connected graphs), which is exactly
// how analysis code over partial graphs uses the helper.
func TestStretchInfUnreachable(t *testing.T) {
	// 0 -> 1 with no way back: r(0,1) = Inf.
	g := graph.New(2)
	if err := g.AddEdge(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	sys := &System{Graph: g, Metric: graph.AllPairs(g), Naming: IdentityNaming(2)}
	tr := &RoundtripTrace{
		Out:  &sim.Trace{Weight: 3, Hops: 1},
		Back: &sim.Trace{Weight: 0, Hops: 0},
	}
	if got := sys.Stretch(0, 1, tr); !math.IsInf(got, 1) {
		t.Fatalf("stretch of unreachable pair = %v, want +Inf", got)
	}
	// The degenerate same-node case still reports 1.
	if got := sys.Stretch(0, 0, &RoundtripTrace{Out: &sim.Trace{}, Back: &sim.Trace{}}); got != 1 {
		t.Fatalf("stretch of identical pair = %v, want 1", got)
	}
}

// TestDeploymentRoutersConcurrent drives roundtrips through the raw
// Deployment — its own bounds-checked Forward, NOT the flattened compile
// path — from many goroutines at once, and demands the traces match the
// monolithic scheme's. Run under -race in CI, this certifies the
// reassembled tables themselves for concurrent service.
func TestDeploymentRoutersConcurrent(t *testing.T) {
	const n = 48
	sys := newTestSystem(t, 8, n)
	s6, err := sys.Build(StretchSix, WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := core.Deploy(s6)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(worker)))
			for i := 0; i < 200; i++ {
				src := int32(rng.Intn(n))
				dst := int32(rng.Intn(n))
				if src == dst {
					continue
				}
				want, err := s6.Roundtrip(src, dst)
				if err != nil {
					errs <- err
					return
				}
				got, err := sim.Roundtrip(dep, src, dst, 0)
				if err != nil {
					errs <- err
					return
				}
				if want.Weight() != got.Weight() || want.Hops() != got.Hops() {
					errs <- fmt.Errorf("router path diverges for %d->%d", src, dst)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestDeploymentServesTraffic drives the concurrent traffic engine over
// a wire-restored Deployment and over the monolithic scheme with the
// same seeds, and demands identical serving results — the route-identity
// acceptance under concurrency (run with -race in CI).
func TestDeploymentServesTraffic(t *testing.T) {
	const n = 64
	sys := newTestSystem(t, 4, n)
	s6, err := sys.Build(StretchSix, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := wire.MarshalScheme(s6)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := UnmarshalScheme(blob)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrafficConfig{
		Workers:  4,
		Packets:  20000,
		Seed:     11,
		Workload: TrafficWorkload{Kind: WorkloadZipf},
	}
	want, err := sys.ServeTraffic(s6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.ServeTraffic(dep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Everything but Elapsed is a pure function of (seed, workers,
	// workload, packets) — and of the plane's routes.
	want.Elapsed, got.Elapsed = 0, 0
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("deployment serving diverges from monolithic plane:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestSystemSharesOneHierarchy: ExStretch, Polynomial and HopSubstrate
// built on one System at the same (k, base, variant) read one cover
// hierarchy, which the System builds once (core's
// TestSystemPlanesShareOneHierarchy checks that each plane built so
// reads it and holds each node's memberships as its slices). The
// System keys the hierarchy on the graph's generation and on the
// oracle: after a reweighting the next build makes a new one and is
// identical to a fresh System's, and a copy of the System over another
// oracle, as Maintained.Certify makes, never reads it.
func TestSystemSharesOneHierarchy(t *testing.T) {
	const n = 40
	sys := newTestSystem(t, 11, n)
	build := func(sys *System, kind SchemeKind) Scheme {
		t.Helper()
		sch, err := sys.Build(kind, WithK(2), WithSeed(3))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		return sch
	}
	build(sys, ExStretch)
	h := sys.hier.h
	if h == nil {
		t.Fatal("ExStretch left the System no hierarchy")
	}
	build(sys, Polynomial)
	build(sys, HopSubstrate)
	if sys.hier.h != h {
		t.Fatal("Polynomial or HopSubstrate replaced ExStretch's hierarchy")
	}

	// A reweighting moves the graph's generation: the next build makes a
	// new hierarchy, identical to a fresh System's over the new weights.
	e := sys.Graph.Out(0)[0]
	if err := sys.Graph.SetEdgeWeight(0, e.To, e.Weight+5); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSystem(sys.Graph.Clone(), sys.Naming)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []SchemeKind{ExStretch, Polynomial, HopSubstrate} {
		if err := CertifyIdentical(build(sys, kind), build(fresh, kind)); err != nil {
			t.Fatalf("%v after a reweighting: %v", kind, err)
		}
	}
	if sys.hier.h == h {
		t.Fatal("the hierarchy outlived its graph generation")
	}

	// A copy over another oracle (it shares the cache) builds its own,
	// from its own rows.
	h, cp := sys.hier.h, *sys
	cp.Metric = graph.NewLazyOracle(cp.Graph, 0)
	if build(&cp, Polynomial); cp.hier.h == h {
		t.Fatal("a System copy over a new oracle read the original's hierarchy")
	}
}

// TestSystemHierarchyConcurrentBuilds: Builds that race on one System
// share its hierarchy cache; each must come out as a lone build does.
func TestSystemHierarchyConcurrentBuilds(t *testing.T) {
	want, err := newTestSystem(t, 12, 40).Build(Polynomial)
	if err != nil {
		t.Fatal(err)
	}
	sys := newTestSystem(t, 12, 40)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(kind SchemeKind) {
			defer wg.Done()
			got, err := sys.Build(kind)
			if err == nil && kind == Polynomial {
				err = CertifyIdentical(got, want)
			}
			if err != nil {
				t.Errorf("%v: %v", kind, err)
			}
		}([]SchemeKind{Polynomial, HopSubstrate}[i%2])
	}
	wg.Wait()
}

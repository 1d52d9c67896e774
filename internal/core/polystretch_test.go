package core

import (
	"math/rand"
	"testing"

	"rtroute/internal/cover"
	"rtroute/internal/graph"
	"rtroute/internal/names"
)

func buildPoly(t testing.TB, seed int64, g *graph.Graph, perm *names.Permutation, k int) (*PolynomialStretch, graph.DistanceOracle) {
	t.Helper()
	m := graph.AllPairs(g)
	if perm == nil {
		perm = names.Random(g.N(), rand.New(rand.NewSource(seed)))
	}
	s, err := NewPolynomialStretch(g, m, perm, PolyConfig{K: k})
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

// polyBound is the §4.3 stretch bound 8k^2 + 4k - 4.
func polyBound(k int) graph.Dist {
	return graph.Dist(8*k*k + 4*k - 4)
}

// TestPolyStretchBound is experiment E6: the §4.3 worst-case stretch
// bound holds for every ordered pair, for k in {2, 3}.
func TestPolyStretchBound(t *testing.T) {
	for _, k := range []int{2, 3} {
		rng := rand.New(rand.NewSource(int64(k)))
		g := graph.RandomSC(36, 144, 6, rng)
		perm := names.Random(g.N(), rng)
		s, m := buildPoly(t, int64(k)+80, g, perm, k)
		bound := polyBound(k)
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if u == v {
					continue
				}
				rt, err := s.Roundtrip(perm.Name(int32(u)), perm.Name(int32(v)))
				if err != nil {
					t.Fatalf("k=%d roundtrip (%d,%d): %v", k, u, v, err)
				}
				r := m.R(graph.NodeID(u), graph.NodeID(v))
				if got := rt.Weight(); got > bound*r {
					t.Fatalf("k=%d: poly stretch violated at (%d,%d): %d > %d * %d", k, u, v, got, bound, r)
				}
				if got := rt.Weight(); got < r {
					t.Fatalf("k=%d: roundtrip (%d,%d) = %d beats optimum %d", k, u, v, got, r)
				}
			}
		}
	}
}

func TestPolyStretchDeliversOnHardGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for _, g := range []*graph.Graph{
		graph.Ring(20, rng),
		graph.Grid(4, 5, rng),
		graph.LayeredSC(4, 5, 4, rng),
	} {
		perm := names.Random(g.N(), rng)
		s, m := buildPoly(t, 91, g, perm, 2)
		bound := polyBound(2)
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if u == v {
					continue
				}
				rt, err := s.Roundtrip(perm.Name(int32(u)), perm.Name(int32(v)))
				if err != nil {
					t.Fatalf("roundtrip (%d,%d) on %d-node graph: %v", u, v, g.N(), err)
				}
				if rt.Weight() > bound*m.R(graph.NodeID(u), graph.NodeID(v)) {
					t.Fatalf("stretch violated at (%d,%d) on %d-node graph", u, v, g.N())
				}
			}
		}
	}
}

func TestPolySelfRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	g := graph.RandomSC(18, 72, 4, rng)
	perm := names.Random(g.N(), rng)
	s, _ := buildPoly(t, 93, g, perm, 2)
	rt, err := s.Roundtrip(perm.Name(2), perm.Name(2))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Weight() != 0 {
		t.Fatalf("self roundtrip weight %d, want 0", rt.Weight())
	}
}

func TestPolyHeaderBound(t *testing.T) {
	// The §4 header carries two tree labels plus bookkeeping: O(log n)
	// words at all times.
	rng := rand.New(rand.NewSource(94))
	g := graph.RandomSC(64, 256, 5, rng)
	perm := names.Random(g.N(), rng)
	s, _ := buildPoly(t, 95, g, perm, 2)
	bound := 8 + 2*(1+2*7) // two labels with <= log2(64)+1 light hops
	for trial := 0; trial < 400; trial++ {
		u := int32(rng.Intn(g.N()))
		v := int32(rng.Intn(g.N()))
		rt, err := s.Roundtrip(perm.Name(u), perm.Name(v))
		if err != nil {
			t.Fatal(err)
		}
		if got := rt.MaxHeaderWords(); got > bound {
			t.Fatalf("header %d words > bound %d", got, bound)
		}
	}
}

func TestPolyAdversarialNamings(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	g := graph.RandomSC(24, 96, 5, rng)
	m := graph.AllPairs(g)
	for _, perm := range []*names.Permutation{
		names.Identity(g.N()),
		names.Reversed(g.N()),
		names.Random(g.N(), rng),
	} {
		s, err := NewPolynomialStretch(g, m, perm, PolyConfig{K: 2})
		if err != nil {
			t.Fatal(err)
		}
		bound := polyBound(2)
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if u == v {
					continue
				}
				rt, err := s.Roundtrip(perm.Name(int32(u)), perm.Name(int32(v)))
				if err != nil {
					t.Fatal(err)
				}
				if rt.Weight() > bound*m.R(graph.NodeID(u), graph.NodeID(v)) {
					t.Fatalf("naming broke poly bound at (%d,%d)", u, v)
				}
			}
		}
	}
}

func TestPolyBallGrowingVariantStillDelivers(t *testing.T) {
	// E10 ablation: with the ball-growing cover the home-tree property
	// still holds in our construction (cores pick their grower's tree),
	// so routing must still deliver; the paper's (2k-1) radius bound is
	// replaced by (k+1).
	rng := rand.New(rand.NewSource(97))
	g := graph.RandomSC(30, 120, 5, rng)
	perm := names.Random(g.N(), rng)
	m := graph.AllPairs(g)
	s, err := NewPolynomialStretch(g, m, perm, PolyConfig{K: 2, Variant: cover.VariantBallGrowing})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u == v {
				continue
			}
			if _, err := s.Roundtrip(perm.Name(int32(u)), perm.Name(int32(v))); err != nil {
				t.Fatalf("ball-growing variant failed at (%d,%d): %v", u, v, err)
			}
		}
	}
}

func TestPolyValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	g := graph.RandomSC(10, 40, 3, rng)
	m := graph.AllPairs(g)
	if _, err := NewPolynomialStretch(g, m, names.Identity(10), PolyConfig{K: 1}); err == nil {
		t.Fatal("K=1 accepted")
	}
	if _, err := NewPolynomialStretch(g, m, names.Identity(4), PolyConfig{K: 2}); err == nil {
		t.Fatal("mismatched naming accepted")
	}
}

func TestPolyLevelsMatchLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := graph.RandomSC(26, 104, 6, rng)
	perm := names.Random(g.N(), rng)
	s, m := buildPoly(t, 100, g, perm, 2)
	want := len(cover.Scales(graph.RTDiamOf(m), 2))
	if s.Levels() != want {
		t.Fatalf("Levels() = %d, ladder has %d", s.Levels(), want)
	}
}

func TestPolyFinerBaseNotWorse(t *testing.T) {
	// Scale base 1.5 yields more levels but finer home trees; aggregate
	// cost must not regress beyond the coarse ladder's bound. (It may be
	// modestly higher per pair; we check the bound still holds.)
	rng := rand.New(rand.NewSource(101))
	g := graph.RandomSC(24, 96, 5, rng)
	perm := names.Random(g.N(), rng)
	m := graph.AllPairs(g)
	s, err := NewPolynomialStretch(g, m, perm, PolyConfig{K: 2, ScaleBase: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	bound := polyBound(2)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u == v {
				continue
			}
			rt, err := s.Roundtrip(perm.Name(int32(u)), perm.Name(int32(v)))
			if err != nil {
				t.Fatal(err)
			}
			if rt.Weight() > bound*m.R(graph.NodeID(u), graph.NodeID(v)) {
				t.Fatalf("base-1.5 ladder broke bound at (%d,%d)", u, v)
			}
		}
	}
}

package rtz

import (
	"math/rand"
	"testing"

	"rtroute/internal/cover"
	"rtroute/internal/graph"
)

func buildScheme(t testing.TB, seed int64, n, extra int, maxW graph.Dist) (*Scheme, *graph.Graph, graph.DistanceOracle) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomSC(n, extra, maxW, rng)
	m := graph.AllPairs(g)
	s, err := New(g, m, rng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s, g, m
}

// TestLemma2OneWayGuarantee verifies the exact contract of Lemma 2 the
// §2 scheme depends on: the one-way path from u to the node addressed by
// R3(v) satisfies p(u,v) <= r(u,v) + d(u,v), for ALL pairs.
func TestLemma2OneWayGuarantee(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		s, g, m := buildScheme(t, seed, 48, 192, 8)
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if u == v {
					continue
				}
				w, _, err := s.Route(graph.NodeID(u), s.LabelOf(graph.NodeID(v)))
				if err != nil {
					t.Fatalf("seed %d route %d->%d: %v", seed, u, v, err)
				}
				bound := m.R(graph.NodeID(u), graph.NodeID(v)) + m.D(graph.NodeID(u), graph.NodeID(v))
				if w > bound {
					t.Fatalf("seed %d: p(%d,%d) = %d > r+d = %d", seed, u, v, w, bound)
				}
				if w < m.D(graph.NodeID(u), graph.NodeID(v)) {
					t.Fatalf("seed %d: p(%d,%d) = %d below shortest distance %d (accounting bug)",
						seed, u, v, w, m.D(graph.NodeID(u), graph.NodeID(v)))
				}
			}
		}
	}
}

// TestLemma2RoundtripStretch3 verifies roundtrip stretch 3 for all pairs.
func TestLemma2RoundtripStretch3(t *testing.T) {
	for _, seed := range []int64{4, 5} {
		s, g, m := buildScheme(t, seed, 40, 160, 10)
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if u == v {
					continue
				}
				w, err := s.Roundtrip(graph.NodeID(u), graph.NodeID(v))
				if err != nil {
					t.Fatal(err)
				}
				r := m.R(graph.NodeID(u), graph.NodeID(v))
				if w > 3*r {
					t.Fatalf("seed %d: roundtrip(%d,%d) = %d > 3r = %d", seed, u, v, w, 3*r)
				}
				if w < r {
					t.Fatalf("seed %d: roundtrip(%d,%d) = %d below optimum %d", seed, u, v, w, r)
				}
			}
		}
	}
}

func TestRouteToSelf(t *testing.T) {
	s, _, _ := buildScheme(t, 6, 20, 60, 5)
	w, hops, err := s.Route(7, s.LabelOf(7))
	if err != nil || w != 0 || hops != 0 {
		t.Fatalf("self route: w=%d hops=%d err=%v; want 0,0,nil", w, hops, err)
	}
}

func TestDirectEntriesClusterClosure(t *testing.T) {
	// For every direct entry (x -> y), following the stored port must
	// reach a node that also has a direct entry for y (or y itself) —
	// the subpath-closure argument made in the package doc.
	s, g, _ := buildScheme(t, 7, 40, 160, 6)
	for x := 0; x < g.N(); x++ {
		s.Tables[x].DirectEntries(func(y graph.NodeID, port graph.PortID) {
			e, ok := g.EdgeByPort(graph.NodeID(x), port)
			if !ok {
				t.Fatalf("direct entry (%d,%d) names missing port %d", x, y, port)
			}
			if e.To == y {
				return
			}
			if _, ok := s.Tables[e.To].DirectPort(y); !ok {
				t.Fatalf("cluster closure violated: %d->%d hops to %d which lacks an entry", x, y, e.To)
			}
		})
	}
}

func TestDirectEntriesAreShortestFirstHops(t *testing.T) {
	s, g, m := buildScheme(t, 8, 36, 144, 7)
	for x := 0; x < g.N(); x++ {
		s.Tables[x].DirectEntries(func(y graph.NodeID, port graph.PortID) {
			e, _ := g.EdgeByPort(graph.NodeID(x), port)
			want := m.D(graph.NodeID(x), y)
			if e.Weight+m.D(e.To, y) != want {
				t.Fatalf("direct entry (%d,%d) not on a shortest path: %d + %d != %d",
					x, y, e.Weight, m.D(e.To, y), want)
			}
		})
	}
}

func TestHeaderAndLabelSizes(t *testing.T) {
	s, g, _ := buildScheme(t, 9, 256, 1024, 9)
	// O(log^2 n) bits: in words, labels are 3 + O(log n).
	maxWords := 0
	for v := 0; v < g.N(); v++ {
		if w := s.LabelOf(graph.NodeID(v)).Words(); w > maxWords {
			maxWords = w
		}
	}
	// log2(256) = 8 light hops max -> label at most 3 + 1 + 16 = 20 words.
	if maxWords > 20 {
		t.Fatalf("max label words = %d, exceeds O(log n) expectation", maxWords)
	}
}

func TestTableGrowthIsSublinear(t *testing.T) {
	// Average table words should grow roughly like sqrt(n) * polylog —
	// far slower than n. Compare n=64 vs n=256: the ratio of average
	// table sizes must be well below the 4x growth of n itself.
	s64, _, _ := buildScheme(t, 10, 64, 256, 5)
	s256, _, _ := buildScheme(t, 11, 256, 1024, 5)
	ratio := s256.AvgTableWords() / s64.AvgTableWords()
	if ratio > 3.5 {
		t.Fatalf("table growth ratio %0.2f for 4x nodes suggests super-sqrt growth", ratio)
	}
}

func TestCustomCenterCount(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := graph.RandomSC(30, 120, 5, rng)
	m := graph.AllPairs(g)
	s, err := New(g, m, rng, Config{CenterCount: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Centers) != 5 {
		t.Fatalf("got %d centers, want 5", len(s.Centers))
	}
	// Still correct (possibly worse stretch... no: stretch-3 analysis
	// holds for ANY center set; fewer centers only grow tables).
	for u := 0; u < g.N(); u += 5 {
		for v := 0; v < g.N(); v += 3 {
			if u == v {
				continue
			}
			w, err := s.Roundtrip(graph.NodeID(u), graph.NodeID(v))
			if err != nil {
				t.Fatal(err)
			}
			if r := m.R(graph.NodeID(u), graph.NodeID(v)); w > 3*r {
				t.Fatalf("few-centers roundtrip(%d,%d) = %d > 3r = %d", u, v, w, 3*r)
			}
		}
	}
}

func TestSchemeOnRing(t *testing.T) {
	// Rings are the adversarial case for roundtrip routing: every
	// roundtrip costs n. Stretch 3 must still hold.
	rng := rand.New(rand.NewSource(13))
	g := graph.Ring(16, rng)
	m := graph.AllPairs(g)
	s, err := New(g, m, rng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u == v {
				continue
			}
			w, err := s.Roundtrip(graph.NodeID(u), graph.NodeID(v))
			if err != nil {
				t.Fatal(err)
			}
			if w > 3*16 {
				t.Fatalf("ring roundtrip(%d,%d) = %d > 48", u, v, w)
			}
		}
	}
}

func TestNewRejectsTrivialGraph(t *testing.T) {
	g := graph.New(1)
	m := graph.AllPairs(g)
	if _, err := New(g, m, rand.New(rand.NewSource(1)), Config{}); err == nil {
		t.Fatal("expected error for single-node graph")
	}
}

// --- Hop substrate tests (Lemma 5 role) ---

func buildHop(t testing.TB, seed int64, n, extra, k int, base float64) (*HopScheme, *graph.Graph, graph.DistanceOracle) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomSC(n, extra, 6, rng)
	m := graph.AllPairs(g)
	return newHop(t, g, m, k, base), g, m
}

// newHop builds the hop substrate over an Awerbuch–Peleg hierarchy.
func newHop(t testing.TB, g *graph.Graph, m graph.DistanceOracle, k int, base float64) *HopScheme {
	h, err := cover.BuildHierarchy(g, m, k, base, cover.VariantAwerbuchPeleg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewHop(g, h)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestHopRoundtripDeliversWithinBound(t *testing.T) {
	k := 2
	s, g, m := buildHop(t, 14, 36, 144, k, 2)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u == v {
				continue
			}
			w, err := s.HopRoundtrip(graph.NodeID(u), graph.NodeID(v))
			if err != nil {
				t.Fatal(err)
			}
			r := m.R(graph.NodeID(u), graph.NodeID(v))
			// Bound: 2*(2k-1)*scale where scale <= 2*max(r,2)
			// (geometric base-2 ladder starting at 2).
			scale := graph.Dist(2)
			for scale < r {
				scale *= 2
			}
			bound := 2 * graph.Dist(2*k-1) * scale
			if w > bound {
				t.Fatalf("hop roundtrip(%d,%d) = %d > bound %d (r=%d)", u, v, w, bound, r)
			}
			if w < r {
				t.Fatalf("hop roundtrip(%d,%d) = %d below optimum %d", u, v, w, r)
			}
		}
	}
}

func TestHopCostMatchesPrediction(t *testing.T) {
	s, g, _ := buildHop(t, 15, 30, 90, 2, 2)
	for u := 0; u < g.N(); u += 3 {
		for v := 0; v < g.N(); v += 2 {
			if u == v {
				continue
			}
			hs, cost, err := s.R2(graph.NodeID(u), graph.NodeID(v))
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := s.RouteHop(graph.NodeID(u), hs.Ref, hs.VLabel)
			if err != nil {
				t.Fatal(err)
			}
			back, _, err := s.RouteHop(graph.NodeID(v), hs.Ref, hs.ULabel)
			if err != nil {
				t.Fatal(err)
			}
			// Early delivery on the climb can only improve on the
			// through-the-root prediction.
			if out+back > cost {
				t.Fatalf("hop(%d,%d) measured %d > predicted %d", u, v, out+back, cost)
			}
		}
	}
}

func TestHopFinerScalesReduceCost(t *testing.T) {
	// Scale base 1.25 must never be worse than base 2 in aggregate —
	// the §4.4 eps-tightening ablation.
	sCoarse, g, _ := buildHop(t, 16, 32, 128, 2, 2)
	rng := rand.New(rand.NewSource(16))
	_ = rng
	m := graph.AllPairs(g)
	sFine := newHop(t, g, m, 2, 1.25)
	var coarse, fine graph.Dist
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			wc, err := sCoarse.HopRoundtrip(graph.NodeID(u), graph.NodeID(v))
			if err != nil {
				t.Fatal(err)
			}
			wf, err := sFine.HopRoundtrip(graph.NodeID(u), graph.NodeID(v))
			if err != nil {
				t.Fatal(err)
			}
			coarse += wc
			fine += wf
		}
	}
	if fine > coarse {
		t.Fatalf("finer scales cost more in aggregate: %d > %d", fine, coarse)
	}
}

func TestHopTableWordsTrackMemberships(t *testing.T) {
	s, g, _ := buildHop(t, 17, 28, 84, 2, 2)
	for v := 0; v < g.N(); v++ {
		want := 1 + 9*len(s.Hierarchy.Memberships(graph.NodeID(v)))
		if got := s.Tables[v].Words(); got != want {
			t.Fatalf("table words at %d = %d, want %d", v, got, want)
		}
	}
	if s.MaxTableWords() <= 0 || s.AvgTableWords() <= 0 {
		t.Fatal("degenerate table accounting")
	}
}

func TestForwardHopOutsideTree(t *testing.T) {
	s, _, _ := buildHop(t, 18, 20, 60, 2, 2)
	h := &HopHeader{Ref: cover.TreeRef{Level: 99, Index: 0}}
	if _, _, err := ForwardHop(s.Tables[0], h); err == nil {
		t.Fatal("expected error for unknown tree ref")
	}
}

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

// --- Hop substrate tests (Lemma 5 role): ForwardHop on the tables a
// cover hierarchy holds. core's HopPlane tests route whole roundtrips.

// hopTables builds an Awerbuch–Peleg hierarchy at k = 2, base 2 over a
// seeded random digraph and returns it with every node's table.
func hopTables(t testing.TB, seed int64, n, extra int) (*cover.Hierarchy, []HopTable) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomSC(n, extra, 6, rng)
	h, err := cover.BuildHierarchy(g, graph.AllPairs(g), 2, 2, cover.VariantAwerbuchPeleg)
	if err != nil {
		t.Fatal(err)
	}
	tabs := make([]HopTable, n)
	for v := range tabs {
		tabs[v] = HopTable{Self: graph.NodeID(v), Trees: h.Memberships(graph.NodeID(v))}
	}
	return h, tabs
}

// TestHopTableWordsTrackMemberships pins the accounting: one word for
// the node plus nine per membership, and every node is in some tree.
func TestHopTableWordsTrackMemberships(t *testing.T) {
	h, tabs := hopTables(t, 17, 28, 84)
	for v := range tabs {
		want := 1 + 9*len(h.Memberships(graph.NodeID(v)))
		if got := tabs[v].Words(); got != want || want == 1 {
			t.Fatalf("table words at %d = %d, want %d > 1", v, got, want)
		}
	}
}

func TestForwardHopOutsideTree(t *testing.T) {
	_, tabs := hopTables(t, 18, 20, 60)
	h := &HopHeader{Ref: cover.TreeRef{Level: 99, Index: 0}}
	if _, _, err := ForwardHop(&tabs[0], h); err == nil {
		t.Fatal("expected error for unknown tree ref")
	}
}

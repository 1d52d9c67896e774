package core

import (
	"math/rand"
	"reflect"
	"testing"

	"rtroute/internal/cover"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/rtz"
)

// TestHopPlaneR2MatchesHierarchy: a hop plane resolves R2 by walking the
// two endpoints' membership tables in step; on unit weights, where many
// shared trees cost the same, every ordered pair must still get the
// tree, both labels and the cost Hierarchy.BestTree gives through
// rtz.HopScheme.R2 — on the built plane and on its deployed copy.
func TestHopPlaneR2MatchesHierarchy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := graph.RandomSC(40, 120, 1, rng)
	m := graph.AllPairs(g)
	h, err := cover.BuildHierarchy(g, m, 2, 2, cover.VariantAwerbuchPeleg)
	if err != nil {
		t.Fatal(err)
	}
	hop, err := rtz.NewHop(g, h)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewHopPlane(hop, names.Random(g.N(), rng))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(p)
	if err != nil {
		t.Fatal(err)
	}
	restored := dep.Scheme().(*HopPlane)
	ties := 0
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		for v := graph.NodeID(0); int(v) < g.N(); v++ {
			want, wantCost, err := hop.R2(u, v)
			if err != nil {
				t.Fatal(err)
			}
			for _, plane := range []*HopPlane{p, restored} {
				got, cost, err := plane.R2(u, v)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) || cost != wantCost {
					t.Fatalf("R2(%d,%d) = %v at cost %d, hierarchy gives %v at cost %d", u, v, got, cost, want, wantCost)
				}
			}
			best := 0
			for _, ref := range h.Memberships(u) {
				if c, ok := cover.RoundtripViaRoot(h.Tree(ref), u, v); ok && c == wantCost {
					best++
				}
			}
			if best > 1 {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatal("no pair has two cheapest shared trees: the tie rule went unexercised")
	}
	t.Logf("%d of %d ordered pairs tie between shared trees", ties, g.N()*g.N())
}

package core

import (
	"math/rand"
	"reflect"
	"testing"

	"rtroute/internal/cover"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/rtz"
	"rtroute/internal/tree"
)

// viaRoot is the cost of u -> root -> v -> root -> u inside tr, the
// "Hop" roundtrip of §3, or false if either node is outside it.
func viaRoot(tr *tree.Tree, u, v graph.NodeID) (graph.Dist, bool) {
	iu, iv := tr.Slot(u), tr.Slot(v)
	if iu < 0 || iv < 0 {
		return 0, false
	}
	return tr.RoundtripAt(iu) + tr.RoundtripAt(iv), true
}

// bestHandshake is R2(u, v) as the hierarchy defines it: of u's trees
// that contain v, the one with the cheapest viaRoot, ties broken toward
// the lower (level, index); both endpoints' labels in it and the
// roundtrip cost through its root.
func bestHandshake(t testing.TB, h *cover.Hierarchy, u, v graph.NodeID) (rtz.Handshake, graph.Dist) {
	t.Helper()
	var ref cover.TreeRef
	cost, found := graph.Dist(graph.Inf), false
	for _, e := range h.Memberships(u) { // ascending (level, index)
		if c, ok := viaRoot(h.Tree(e.Ref), u, v); ok && c < cost {
			ref, cost, found = e.Ref, c, true
		}
	}
	if !found {
		t.Fatalf("no shared double-tree for (%d,%d)", u, v)
	}
	tr := h.Tree(ref)
	ul, ok1 := tr.LabelOf(u)
	vl, ok2 := tr.LabelOf(v)
	if !ok1 || !ok2 {
		t.Fatalf("tree %v lacks labels for (%d,%d)", ref, u, v)
	}
	return rtz.Handshake{Ref: ref, ULabel: ul, VLabel: vl}, cost
}

// newHopPlane builds a hop plane over an Awerbuch–Peleg hierarchy of g.
func newHopPlane(t testing.TB, g *graph.Graph, m graph.DistanceOracle, k int, base float64, rng *rand.Rand) (*HopPlane, *cover.Hierarchy) {
	t.Helper()
	h, err := cover.BuildHierarchy(g, m, k, base, cover.VariantAwerbuchPeleg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewHopPlane(g, h, names.Random(g.N(), rng))
	if err != nil {
		t.Fatal(err)
	}
	return p, h
}

// hopWorld is a seeded random digraph with weights in [1, 6] and a hop
// plane over it.
func hopWorld(t testing.TB, seed int64, n, extra, k int, base float64) (*HopPlane, *graph.Graph, graph.DistanceOracle) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomSC(n, extra, 6, rng)
	m := graph.AllPairs(g)
	p, _ := newHopPlane(t, g, m, k, base, rng)
	return p, g, m
}

// hopRoundtrip routes u -> v -> u on p and returns its weight.
func hopRoundtrip(t testing.TB, p *HopPlane, u, v graph.NodeID) graph.Dist {
	t.Helper()
	rt, err := p.Roundtrip(p.perm.Name(int32(u)), p.perm.Name(int32(v)))
	if err != nil {
		t.Fatal(err)
	}
	return rt.Weight()
}

// TestHopPlaneR2MatchesHierarchy: a hop plane resolves R2 by walking the
// two endpoints' membership tables in step; on unit weights, where many
// shared trees cost the same, every ordered pair must still get the
// tree, both labels and the cost bestHandshake gives — on the built
// plane and on its deployed copy.
func TestHopPlaneR2MatchesHierarchy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := graph.RandomSC(40, 120, 1, rng)
	p, h := newHopPlane(t, g, graph.AllPairs(g), 2, 2, rng)
	dep, err := Deploy(p)
	if err != nil {
		t.Fatal(err)
	}
	restored := dep.Scheme().(*HopPlane)
	ties := 0
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		for v := graph.NodeID(0); int(v) < g.N(); v++ {
			want, wantCost := bestHandshake(t, h, u, v)
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
			for _, e := range h.Memberships(u) {
				if c, ok := viaRoot(h.Tree(e.Ref), u, v); ok && c == wantCost {
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

// TestHopRoundtripDeliversWithinBound is Lemma 5 over every ordered
// pair: a roundtrip through R2's tree weighs at least r(u,v) and at most
// 2(2k-1)·scale, scale being the first rung of the base-2 ladder from 2
// that reaches r(u,v); a node's roundtrip to itself weighs 0.
func TestHopRoundtripDeliversWithinBound(t *testing.T) {
	k := 2
	p, g, m := hopWorld(t, 14, 36, 144, k, 2)
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		for v := graph.NodeID(0); int(v) < g.N(); v++ {
			w, r := hopRoundtrip(t, p, u, v), m.R(u, v)
			if u == v {
				if w != 0 {
					t.Fatalf("self hop roundtrip at %d weighs %d, want 0", u, w)
				}
				continue
			}
			scale := graph.Dist(2)
			for scale < r {
				scale *= 2
			}
			if bound := 2 * graph.Dist(2*k-1) * scale; w > bound {
				t.Fatalf("hop roundtrip(%d,%d) = %d > bound %d (r=%d)", u, v, w, bound, r)
			}
			if w < r {
				t.Fatalf("hop roundtrip(%d,%d) = %d below optimum %d", u, v, w, r)
			}
		}
	}
}

// TestHopCostMatchesPrediction: a routed roundtrip weighs at most the
// through-the-root cost R2 predicts; early delivery on the climb can
// only improve on it.
func TestHopCostMatchesPrediction(t *testing.T) {
	p, g, _ := hopWorld(t, 15, 30, 90, 2, 2)
	for u := graph.NodeID(0); int(u) < g.N(); u += 3 {
		for v := graph.NodeID(0); int(v) < g.N(); v += 2 {
			if u == v {
				continue
			}
			_, cost, err := p.R2(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if w := hopRoundtrip(t, p, u, v); w > cost {
				t.Fatalf("hop(%d,%d) measured %d > predicted %d", u, v, w, cost)
			}
		}
	}
}

// TestHopFinerScalesReduceCost: scale base 1.25 must never be worse
// than base 2 in aggregate — the §4.4 eps-tightening ablation.
func TestHopFinerScalesReduceCost(t *testing.T) {
	coarse, g, m := hopWorld(t, 16, 32, 128, 2, 2)
	fine, _ := newHopPlane(t, g, m, 2, 1.25, rand.New(rand.NewSource(16)))
	var wc, wf graph.Dist
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		for v := u + 1; int(v) < g.N(); v++ {
			wc += hopRoundtrip(t, coarse, u, v)
			wf += hopRoundtrip(t, fine, u, v)
		}
	}
	if wf > wc {
		t.Fatalf("finer scales cost more in aggregate: %d > %d", wf, wc)
	}
}

// TestHopPlaneRejectsForeignHierarchy: a hierarchy over another node
// count cannot serve the graph.
func TestHopPlaneRejectsForeignHierarchy(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	gSmall := graph.RandomSC(10, 30, 3, rng)
	h, err := cover.BuildHierarchy(gSmall, graph.AllPairs(gSmall), 2, 2, cover.VariantAwerbuchPeleg)
	if err != nil {
		t.Fatal(err)
	}
	gBig := graph.RandomSC(20, 60, 3, rng)
	if _, err := NewHopPlane(gBig, h, names.Random(gBig.N(), rng)); err == nil {
		t.Fatal("foreign hierarchy accepted for a larger graph")
	}
}

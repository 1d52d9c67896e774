package core_test

import (
	"math/rand"
	"testing"

	"rtroute"
	"rtroute/internal/core"
	"rtroute/internal/graph"
)

// TestSystemPlanesShareOneHierarchy: ExStretch, Polynomial and
// HopSubstrate built through one rtroute.System at the same (k, base,
// variant) route on the cover hierarchy the System keeps, and hold each
// node's hop-substrate memberships once: every plane's table at v is the
// hierarchy's own slice. A System that stopped passing its hierarchy to
// one of the constructors would build a second one here.
func TestSystemPlanesShareOneHierarchy(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(11))
	sys, err := rtroute.NewSystem(graph.RandomSC(n, 4*n, 6, rng), rtroute.RandomNaming(n, rng))
	if err != nil {
		t.Fatal(err)
	}
	build := func(kind rtroute.SchemeKind) core.Scheme {
		t.Helper()
		sch, err := sys.Build(kind, rtroute.WithK(2), rtroute.WithSeed(3))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		return sch
	}
	ex := build(rtroute.ExStretch)
	h := core.HierarchyOf(ex)
	if h == nil {
		t.Fatal("ExStretch kept no hierarchy")
	}
	poly := build(rtroute.Polynomial)
	if core.HierarchyOf(poly) != h {
		t.Fatal("Polynomial built its own hierarchy beside ExStretch's")
	}
	hop := build(rtroute.HopSubstrate)
	for v := range graph.NodeID(n) {
		want := h.Memberships(v)
		for _, p := range []core.Scheme{ex, poly, hop} {
			if got := core.MembershipsOf(p, v); len(got) != len(want) || &got[0] != &want[0] {
				t.Fatalf("%T holds its own copy of node %d's memberships", p, v)
			}
		}
	}
}

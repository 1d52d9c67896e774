package graph

import (
	"math/rand"
	"strings"
	"testing"
)

func TestRandomSCDeterministic(t *testing.T) {
	g1 := RandomSC(30, 60, 10, rand.New(rand.NewSource(5)))
	g2 := RandomSC(30, 60, 10, rand.New(rand.NewSource(5)))
	if g1.M() != g2.M() {
		t.Fatalf("same seed produced different edge counts: %d vs %d", g1.M(), g2.M())
	}
	for u := 0; u < g1.N(); u++ {
		e1, e2 := g1.Out(NodeID(u)), g2.Out(NodeID(u))
		if len(e1) != len(e2) {
			t.Fatalf("node %d degree differs", u)
		}
		for i := range e1 {
			if e1[i] != e2[i] {
				t.Fatalf("node %d edge %d differs: %+v vs %+v", u, i, e1[i], e2[i])
			}
		}
	}
}

func TestRandomSCEdgeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := RandomSC(50, 75, 10, rng)
	if g.M() != 50+75 {
		t.Fatalf("M = %d, want %d", g.M(), 125)
	}
}

// TestRandomSCCapsExtraEdges: asking for more extra edges than the
// ordered pairs the cycle leaves free returns the complete digraph
// instead of drawing forever.
func TestRandomSCCapsExtraEdges(t *testing.T) {
	for _, tc := range []struct{ n, extra int }{{2, 8}, {3, 12}, {4, 100}} {
		g := RandomSC(tc.n, tc.extra, 8, rand.New(rand.NewSource(1)))
		if want := tc.n * (tc.n - 1); g.M() != want || !StronglyConnected(g) {
			t.Fatalf("RandomSC(%d, %d): %d edges, strongly connected %v; want the complete %d",
				tc.n, tc.extra, g.M(), StronglyConnected(g), want)
		}
	}
}

// TestGenerate: every family builds a strongly connected graph down to
// two nodes, layered pads to two four-node layers, and too few nodes or
// an unknown family is an error.
func TestGenerate(t *testing.T) {
	for _, family := range strings.Split(Families, "|") {
		for n := 2; n <= 5; n++ {
			g, err := Generate(family, n, 8, rand.New(rand.NewSource(int64(n))))
			if err != nil {
				t.Fatalf("%s n=%d: %v", family, n, err)
			}
			if g.N() < n || !StronglyConnected(g) {
				t.Fatalf("%s n=%d: %d nodes, strongly connected %v", family, n, g.N(), StronglyConnected(g))
			}
		}
	}
	if g, _ := Generate("layered", 4, 8, rand.New(rand.NewSource(1))); g.N() != 8 {
		t.Fatalf("layered n=4: %d nodes, want 8", g.N())
	}
	for _, tc := range []struct {
		family string
		n      int
	}{{"random", 1}, {"ring", 0}, {"torus", 16}} {
		if _, err := Generate(tc.family, tc.n, 8, rand.New(rand.NewSource(1))); err == nil {
			t.Fatalf("Generate(%q, %d) accepted", tc.family, tc.n)
		}
	}
}

func TestRandomSCWeightsInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := RandomSC(40, 100, 17, rng)
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Out(NodeID(u)) {
			if e.Weight < 1 || e.Weight > 17 {
				t.Fatalf("weight %d outside [1,17]", e.Weight)
			}
		}
	}
}

func TestBidirectSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := RandomSC(30, 60, 5, rng)
	b := Bidirect(g)
	for u := 0; u < b.N(); u++ {
		for _, e := range b.Out(NodeID(u)) {
			w, ok := b.PortTo(e.To, NodeID(u))
			_ = w
			if !ok {
				t.Fatalf("bidirected graph missing reverse of (%d,%d)", u, e.To)
			}
		}
	}
	m := AllPairs(b)
	for u := 0; u < b.N(); u++ {
		for v := 0; v < b.N(); v++ {
			if m.FromSource(NodeID(u))[NodeID(v)] != m.FromSource(NodeID(v))[NodeID(u)] {
				t.Fatalf("Bidirect distances asymmetric at (%d,%d)", u, v)
			}
		}
	}
}

func TestGeneratorPanicsOnBadInput(t *testing.T) {
	tests := []struct {
		name string
		fn   func()
	}{
		{"RandomSC n=1", func() { RandomSC(1, 0, 1, rand.New(rand.NewSource(1))) }},
		{"Ring n=1", func() { Ring(1, nil) }},
		{"Grid 1x1", func() { Grid(1, 1, nil) }},
		{"LayeredSC layers=1", func() { LayeredSC(1, 3, 1, rand.New(rand.NewSource(1))) }},
		{"Complete n=1", func() { Complete(1, 1, rand.New(rand.NewSource(1))) }},
		{"New negative", func() { New(-1) }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

func TestLayeredAsymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := LayeredSC(6, 4, 3, rng)
	m := AllPairs(g)
	// In a layered graph, going "forward" is much cheaper than coming
	// back; check at least one pair is strongly asymmetric.
	asym := false
	for u := 0; u < g.N() && !asym; u++ {
		for v := 0; v < g.N(); v++ {
			duv, dvu := m.FromSource(NodeID(u))[NodeID(v)], m.FromSource(NodeID(v))[NodeID(u)]
			if duv > 0 && dvu > 3*duv {
				asym = true
				break
			}
		}
	}
	if !asym {
		t.Fatal("layered graph shows no forward/backward asymmetry")
	}
}

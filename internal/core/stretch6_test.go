package core

import (
	"math"
	"math/rand"
	"testing"

	"rtroute/internal/blocks"
	"rtroute/internal/graph"
	"rtroute/internal/names"
)

func buildStretch6(t testing.TB, seed int64, g *graph.Graph, perm *names.Permutation) (*StretchSix, graph.DistanceOracle) {
	t.Helper()
	m := graph.AllPairs(g)
	rng := rand.New(rand.NewSource(seed))
	if perm == nil {
		perm = names.Random(g.N(), rng)
	}
	s, err := NewStretchSix(g, m, perm, rng, Stretch6Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

// TestStretchSixBound is experiment E3: Lemma 3's stretch-6 guarantee is
// a worst-case bound, so we assert it for EVERY ordered pair on several
// random weighted digraphs under adversarial naming.
func TestStretchSixBound(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomSC(40, 160, 9, rng)
		perm := names.Random(g.N(), rng)
		s, m := buildStretch6(t, seed+100, g, perm)
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if u == v {
					continue
				}
				rt, err := s.Roundtrip(perm.Name(int32(u)), perm.Name(int32(v)))
				if err != nil {
					t.Fatalf("seed %d roundtrip %d->%d: %v", seed, u, v, err)
				}
				r := m.R(graph.NodeID(u), graph.NodeID(v))
				if got := rt.Weight(); got > 6*r {
					t.Fatalf("seed %d: stretch-6 violated for (%d,%d): %d > 6*%d", seed, u, v, got, r)
				}
				if got := rt.Weight(); got < r {
					t.Fatalf("seed %d: roundtrip (%d,%d) = %d beats optimum %d (metric bug)", seed, u, v, got, r)
				}
			}
		}
	}
}

func TestStretchSixSelfRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomSC(20, 80, 5, rng)
	perm := names.Random(g.N(), rng)
	s, _ := buildStretch6(t, 5, g, perm)
	rt, err := s.Roundtrip(perm.Name(3), perm.Name(3))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Weight() != 0 || rt.Hops() != 0 {
		t.Fatalf("self roundtrip cost %d weight, %d hops; want 0", rt.Weight(), rt.Hops())
	}
}

func TestStretchSixHeaderBound(t *testing.T) {
	// Headers must stay O(log^2 n) bits; in words that is O(log n).
	rng := rand.New(rand.NewSource(6))
	g := graph.RandomSC(128, 512, 7, rng)
	perm := names.Random(g.N(), rng)
	s, _ := buildStretch6(t, 7, g, perm)
	logn := int(math.Ceil(math.Log2(float64(g.N()))))
	bound := 12 + 6*logn // generous constant: two R3 labels + bookkeeping
	for trial := 0; trial < 300; trial++ {
		u := int32(rng.Intn(g.N()))
		v := int32(rng.Intn(g.N()))
		rt, err := s.Roundtrip(perm.Name(u), perm.Name(v))
		if err != nil {
			t.Fatal(err)
		}
		if got := rt.MaxHeaderWords(); got > bound {
			t.Fatalf("header grew to %d words; O(log n) bound %d", got, bound)
		}
	}
}

func TestStretchSixAdversarialNamings(t *testing.T) {
	// The same topology under identity, reversed and random namings must
	// all meet the bound: the scheme may not exploit name/topology
	// correlation (the whole point of TINN).
	rng := rand.New(rand.NewSource(8))
	g := graph.RandomSC(32, 128, 6, rng)
	m := graph.AllPairs(g)
	for _, perm := range []*names.Permutation{
		names.Identity(g.N()),
		names.Reversed(g.N()),
		names.Random(g.N(), rng),
	} {
		s, err := NewStretchSix(g, m, perm, rand.New(rand.NewSource(9)), Stretch6Config{})
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if u == v {
					continue
				}
				rt, err := s.Roundtrip(perm.Name(int32(u)), perm.Name(int32(v)))
				if err != nil {
					t.Fatal(err)
				}
				if rt.Weight() > 6*m.R(graph.NodeID(u), graph.NodeID(v)) {
					t.Fatalf("naming broke stretch bound at (%d,%d)", u, v)
				}
			}
		}
	}
}

func TestStretchSixOnRing(t *testing.T) {
	// Rings force maximal one-way asymmetry.
	rng := rand.New(rand.NewSource(10))
	g := graph.Ring(25, rng)
	perm := names.Random(g.N(), rng)
	s, m := buildStretch6(t, 11, g, perm)
	for u := 0; u < g.N(); u += 3 {
		for v := 0; v < g.N(); v += 2 {
			if u == v {
				continue
			}
			rt, err := s.Roundtrip(perm.Name(int32(u)), perm.Name(int32(v)))
			if err != nil {
				t.Fatal(err)
			}
			if rt.Weight() > 6*m.R(graph.NodeID(u), graph.NodeID(v)) {
				t.Fatalf("ring stretch violated at (%d,%d)", u, v)
			}
		}
	}
}

func TestStretchSixOnGridAndLayered(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, g := range []*graph.Graph{
		graph.Grid(5, 6, rng),
		graph.LayeredSC(4, 6, 4, rng),
		graph.ScaleFreeSC(30, 2, 5, rng),
	} {
		perm := names.Random(g.N(), rng)
		s, m := buildStretch6(t, 13, g, perm)
		for u := 0; u < g.N(); u += 2 {
			for v := 1; v < g.N(); v += 3 {
				if u == v {
					continue
				}
				rt, err := s.Roundtrip(perm.Name(int32(u)), perm.Name(int32(v)))
				if err != nil {
					t.Fatal(err)
				}
				if rt.Weight() > 6*m.R(graph.NodeID(u), graph.NodeID(v)) {
					t.Fatalf("stretch violated at (%d,%d) on %d-node graph", u, v, g.N())
				}
			}
		}
	}
}

func TestStretchSixTableGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("table growth measurement needs n=1024")
	}
	// E9: average table size should scale ~sqrt(n)*polylog. At small n
	// the O(log n) block count equals the sqrt(n) block universe, so the
	// sqrt regime only shows at n >= 256; quadrupling 256 -> 1024 must
	// grow tables well under 4x.
	sizes := map[int]float64{}
	for _, n := range []int{256, 1024} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := graph.RandomSC(n, 4*n, 8, rng)
		perm := names.Random(n, rng)
		m := graph.AllPairs(g)
		s, err := NewStretchSix(g, m, perm, rng, Stretch6Config{
			Blocks: blocks.Config{Boost: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		sizes[n] = s.AvgTableWords()
	}
	if ratio := sizes[1024] / sizes[256]; ratio > 3.2 {
		t.Fatalf("table growth ratio %.2f for 4x nodes; expected ~2x (sqrt growth)", ratio)
	}
}

func TestStretchSixArbitraryWeights(t *testing.T) {
	// §2 allows ARBITRARY positive weights (no polynomial restriction):
	// exercise huge weight spread.
	rng := rand.New(rand.NewSource(14))
	g := graph.RandomSC(24, 96, 1_000_000_000, rng)
	perm := names.Random(g.N(), rng)
	s, m := buildStretch6(t, 15, g, perm)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u == v {
				continue
			}
			rt, err := s.Roundtrip(perm.Name(int32(u)), perm.Name(int32(v)))
			if err != nil {
				t.Fatal(err)
			}
			if rt.Weight() > 6*m.R(graph.NodeID(u), graph.NodeID(v)) {
				t.Fatalf("huge weights broke bound at (%d,%d)", u, v)
			}
		}
	}
}

func TestStretchSixRejectsBadInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	g := graph.RandomSC(10, 20, 3, rng)
	m := graph.AllPairs(g)
	if _, err := NewStretchSix(graph.New(1), graph.AllPairs(graph.New(1)), names.Identity(1), rng, Stretch6Config{}); err == nil {
		t.Fatal("single-node graph accepted")
	}
	if _, err := NewStretchSix(g, m, names.Identity(5), rng, Stretch6Config{}); err == nil {
		t.Fatal("mismatched naming accepted")
	}
}

func TestStretchSixStretchDistribution(t *testing.T) {
	// Mean stretch should be comfortably below the worst case — a sanity
	// check that the scheme is not pathologically pinned at its bound.
	rng := rand.New(rand.NewSource(17))
	g := graph.RandomSC(48, 240, 6, rng)
	perm := names.Random(g.N(), rng)
	s, m := buildStretch6(t, 18, g, perm)
	var total, count float64
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u == v {
				continue
			}
			rt, err := s.Roundtrip(perm.Name(int32(u)), perm.Name(int32(v)))
			if err != nil {
				t.Fatal(err)
			}
			total += float64(rt.Weight()) / float64(m.R(graph.NodeID(u), graph.NodeID(v)))
			count++
		}
	}
	mean := total / count
	if mean > 4.0 {
		t.Fatalf("mean stretch %.2f suspiciously close to the worst case 6", mean)
	}
	if mean < 1.0 {
		t.Fatalf("mean stretch %.2f below 1 (accounting bug)", mean)
	}
}

package cover

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rtroute/internal/graph"
)

// Property-based sweeps of Theorem 10 over random (graph, k, d)
// combinations — the theorem promises worst-case properties for EVERY
// parameterization, so random sampling of the parameter space is the
// right generator.

func TestQuickTheorem10Coverage(t *testing.T) {
	err := quick.Check(func(seedRaw uint16, kRaw, dRaw uint8) bool {
		rng := rand.New(rand.NewSource(int64(seedRaw)))
		n := 16 + int(seedRaw)%24
		g := graph.RandomSC(n, 3*n, 5, rng)
		m := graph.AllPairs(g)
		dm := func(u, v graph.NodeID) graph.Dist { return m.R(u, v) }
		k := 2 + int(kRaw)%3
		d := graph.Dist(1 + int(dRaw)%20)
		res, err := Build(g, dm, k, d)
		if err != nil {
			return false
		}
		// Property 1 for every node.
		for v := 0; v < n; v++ {
			home := res.Clusters[res.Home[graph.NodeID(v)]]
			inHome := make(map[graph.NodeID]bool, len(home.Nodes))
			for _, u := range home.Nodes {
				inHome[u] = true
			}
			for u := 0; u < n; u++ {
				if dm(graph.NodeID(v), graph.NodeID(u)) <= d && !inHome[graph.NodeID(u)] {
					return false
				}
			}
		}
		// Property 3.
		bound := int(math.Ceil(2 * float64(k) * math.Pow(float64(n), 1/float64(k))))
		return res.maxOverlap(n) <= bound
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickClusterDisjointnessPerRound(t *testing.T) {
	// Within one PartialCover invocation, output clusters are pairwise
	// disjoint (Lemma 11 property 2). We verify the observable corollary
	// on the final cover: every ball is contained in its home cluster and
	// home assignments are total.
	err := quick.Check(func(seedRaw uint16, dRaw uint8) bool {
		rng := rand.New(rand.NewSource(int64(seedRaw)))
		n := 12 + int(seedRaw)%20
		g := graph.RandomSC(n, 3*n, 4, rng)
		m := graph.AllPairs(g)
		dm := func(u, v graph.NodeID) graph.Dist { return m.R(u, v) }
		d := graph.Dist(1 + int(dRaw)%15)
		res, err := Build(g, dm, 2, d)
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if res.Home[v] < 0 || int(res.Home[v]) >= len(res.Clusters) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickBallGrowingRadius(t *testing.T) {
	err := quick.Check(func(seedRaw uint16, kRaw, dRaw uint8) bool {
		rng := rand.New(rand.NewSource(int64(seedRaw)))
		n := 12 + int(seedRaw)%20
		g := graph.RandomSC(n, 3*n, 4, rng)
		m := graph.AllPairs(g)
		dm := func(u, v graph.NodeID) graph.Dist { return m.R(u, v) }
		k := 1 + int(kRaw)%4
		d := graph.Dist(1 + int(dRaw)%12)
		res, err := BuildBallGrowing(g, dm, k, d)
		if err != nil {
			return false
		}
		// Global-metric radius from the seed is bounded by (k+1)d;
		// induced radius equals it for balls (cycle closure).
		for _, c := range res.Clusters {
			for _, v := range c.Nodes {
				if dm(c.Center, v) > graph.Dist(k+1)*d {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickScalesLadderInvariants(t *testing.T) {
	err := quick.Check(func(diamRaw uint16, baseRaw uint8) bool {
		diam := graph.Dist(1 + int(diamRaw)%100000)
		base := 1.1 + float64(baseRaw%40)/10 // 1.1 .. 5.0
		s := Scales(diam, base)
		if len(s) == 0 {
			return false
		}
		for i := 0; i+1 < len(s); i++ {
			if s[i] >= s[i+1] {
				return false
			}
		}
		return s[len(s)-1] >= diam || diam < 2
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

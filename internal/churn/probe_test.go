package churn

import (
	"fmt"
	"math/rand"
	"testing"

	"rtroute/internal/graph"
)

// Affected is the oracle the prober is certified against: it mutates
// edge (u, v) of g to weight wNew and returns the sorted may-use affected
// set by evaluating probe.go's two equalities directly, on the four rows
// anchored at u and v of the old graph and the same four of the new —
// eight Dijkstras.
func Affected(g *graph.Graph, u, v graph.NodeID, wNew graph.Dist) []graph.NodeID {
	n := g.N()
	fuO := graph.Dijkstra(g, u).Dist
	fvO := graph.Dijkstra(g, v).Dist
	tuO := graph.DijkstraRev(g, u).Dist
	tvO := graph.DijkstraRev(g, v).Dist
	wOld, _ := g.EdgeWeight(u, v)

	if err := g.SetEdgeWeight(u, v, wNew); err != nil {
		panic(fmt.Sprintf("churn: reweight (%d,%d): %v", u, v, err))
	}
	fuN := graph.Dijkstra(g, u).Dist
	fvN := graph.Dijkstra(g, v).Dist
	tuN := graph.DijkstraRev(g, u).Dist
	tvN := graph.DijkstraRev(g, v).Dist

	var dirty []graph.NodeID
	for i := 0; i < n; i++ {
		x := graph.NodeID(i)
		srcAff := tvO[x] == tuO[x]+wOld || tvN[x] == tuN[x]+wNew
		dstAff := fuO[x] == wOld+fvO[x] || fuN[x] == wNew+fvN[x]
		if srcAff || dstAff {
			dirty = append(dirty, x)
		}
	}
	return dirty
}

// probeEvents draws an admissible event stream and yields, for every
// event that actually moves the metric, the (u, v, wNew) mutation —
// applying it to both graphs so exact and bounded probes see identical
// configurations.
func probeStream(t testing.TB, n int, seed int64, events int,
	check func(gx, gb *graph.Graph, u, v graph.NodeID, wNew graph.Dist)) {
	rng := rand.New(rand.NewSource(seed))
	gx := graph.RandomSC(n, 4*n, 8, rng)
	// Remap into [33, 64] so no edge dominates its node (the churn
	// experiments' weight-domain discipline).
	for u := 0; u < n; u++ {
		for _, e := range gx.Out(graph.NodeID(u)) {
			if err := gx.SetEdgeWeight(graph.NodeID(u), e.To, 33+(e.Weight-1)%32); err != nil {
				t.Fatal(err)
			}
		}
	}
	gb := gx.Clone()
	ov, err := NewOverlay(gx.Clone(), nil)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(ov, seed+1, 5, Mix{}, 64)
	m.SetMinWeight(33)
	for i := 0; i < events; i++ {
		ev := m.Next()
		var u, v graph.NodeID
		var wNew graph.Dist
		switch ev.Kind {
		case EdgeDown:
			u, v, wNew = ev.U, ev.V, graph.DownWeight
		case EdgeUp:
			if w, ok := gx.EdgeWeight(ev.U, ev.V); !ok || w != graph.DownWeight {
				// Model admissibility tracks its own overlay; skip
				// recoveries of edges our graphs never took down.
				u, v, wNew = ev.U, ev.V, 0
			} else {
				u, v, wNew = ev.U, ev.V, 33+graph.Dist(i%32)
			}
		case WeightChange:
			u, v, wNew = ev.U, ev.V, ev.Weight
		}
		if _, err := ov.Apply(ev); err != nil {
			t.Fatal(err)
		}
		if wNew == 0 {
			continue // node event or inadmissible recovery
		}
		if w, _ := gx.EdgeWeight(u, v); w == wNew {
			continue
		}
		check(gx, gb, u, v, wNew)
	}
}

// TestBoundedAffectedSetSupersetOfExact drives random event sequences
// through both probes on twin graphs: the bounded set must contain
// every node of the 8-Dijkstra exact set (the soundness the delta
// maintainers rely on) — and by the closure argument in probe.go it
// matches it exactly, which is asserted too.
func TestBoundedAffectedSetSupersetOfExact(t *testing.T) {
	for _, n := range []int{24, 64, 128} {
		probeStream(t, n, int64(100+n), 60, func(gx, gb *graph.Graph, u, v graph.NodeID, wNew graph.Dist) {
			exact := Affected(gx, u, v, wNew)
			bounded := NewProber().Affected(gb, u, v, wNew)
			inB := make(map[graph.NodeID]bool, len(bounded))
			for _, x := range bounded {
				inB[x] = true
			}
			for _, x := range exact {
				if !inB[x] {
					t.Fatalf("n=%d (%d,%d)->%d: exact node %d missing from bounded set %v (exact %v)",
						n, u, v, wNew, x, bounded, exact)
				}
			}
			if len(bounded) != len(exact) {
				t.Fatalf("n=%d (%d,%d)->%d: bounded set has %d nodes, exact %d\nbounded %v\nexact   %v",
					n, u, v, wNew, len(bounded), len(exact), bounded, exact)
			}
		})
	}
}

// FuzzChurnEventStream feeds fuzzer-chosen event streams through twin
// overlays — one per probe — checking the superset property and that
// both graphs stay weight-identical (the probes' mutate-inside
// contracts agree).
func FuzzChurnEventStream(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(7), []byte{2, 2, 2, 0, 1, 0, 1})
	f.Add(int64(42), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, picks []byte) {
		if len(picks) > 64 {
			picks = picks[:64]
		}
		const n = 24
		rng := rand.New(rand.NewSource(seed))
		gx := graph.RandomSC(n, 4*n, 8, rng)
		gb := gx.Clone()
		var edges [][2]graph.NodeID
		for u := 0; u < n; u++ {
			for _, e := range gx.Out(graph.NodeID(u)) {
				edges = append(edges, [2]graph.NodeID{graph.NodeID(u), e.To})
			}
		}
		for i, b := range picks {
			ed := edges[int(b)%len(edges)]
			u, v := ed[0], ed[1]
			wCur, _ := gx.EdgeWeight(u, v)
			var wNew graph.Dist
			switch {
			case b%3 == 0 && wCur < graph.DownWeight:
				wNew = graph.DownWeight // down
			case wCur == graph.DownWeight:
				wNew = 1 + graph.Dist(i%8) // back up
			default:
				wNew = 1 + graph.Dist(int(b)%8)
			}
			if wNew == graph.DownWeight && !liveStronglyConnected(gx, linkID{u, v}) {
				continue
			}
			exact := Affected(gx, u, v, wNew)
			bounded := NewProber().Affected(gb, u, v, wNew)
			inB := make(map[graph.NodeID]bool, len(bounded))
			for _, x := range bounded {
				inB[x] = true
			}
			for _, x := range exact {
				if !inB[x] {
					t.Fatalf("event %d (%d,%d)->%d: exact node %d missing from bounded %v", i, u, v, wNew, x, bounded)
				}
			}
			for uu := 0; uu < n; uu++ {
				for _, e := range gx.Out(graph.NodeID(uu)) {
					wb, _ := gb.EdgeWeight(graph.NodeID(uu), e.To)
					if wb != e.Weight {
						t.Fatalf("graphs diverged at (%d,%d): %d vs %d", uu, e.To, e.Weight, wb)
					}
				}
			}
		}
	})
}

// benchProbe times one probe flavor over a fixed mutation schedule.
func benchProbe(b *testing.B, n int, bounded bool) {
	rng := rand.New(rand.NewSource(9))
	g := graph.RandomSC(n, 4*n, 8, rng)
	for u := 0; u < n; u++ {
		for _, e := range g.Out(graph.NodeID(u)) {
			if err := g.SetEdgeWeight(graph.NodeID(u), e.To, 33+(e.Weight-1)%32); err != nil {
				b.Fatal(err)
			}
		}
	}
	var edges [][2]graph.NodeID
	for u := 0; u < n; u++ {
		for _, e := range g.Out(graph.NodeID(u)) {
			edges = append(edges, [2]graph.NodeID{graph.NodeID(u), e.To})
		}
	}
	p := NewProber()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ed := edges[i%len(edges)]
		w := 33 + graph.Dist(i%32)
		if bounded {
			p.Affected(g, ed[0], ed[1], w)
		} else {
			Affected(g, ed[0], ed[1], w)
		}
	}
}

func BenchmarkAffectedExact1024(b *testing.B)   { benchProbe(b, 1024, false) }
func BenchmarkAffectedBounded1024(b *testing.B) { benchProbe(b, 1024, true) }

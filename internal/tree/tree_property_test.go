package tree

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rtroute/internal/graph"
)

// Property-based tests on the tree-routing substrate: over random graph
// seeds and roots, routing from the root must follow the exact
// shortest-path distance, labels must respect the heavy-path bound, and
// in-tree + out-tree distances must compose into each member's
// roundtrip through the root.

func TestQuickOutTreeOptimality(t *testing.T) {
	err := quick.Check(func(seedRaw uint16, rootRaw, dstRaw uint8) bool {
		seed := int64(seedRaw)
		rng := rand.New(rand.NewSource(seed))
		n := 20 + int(seedRaw)%30
		g := graph.RandomSC(n, 3*n, 7, rng)
		root := graph.NodeID(int(rootRaw) % n)
		dst := graph.NodeID(int(dstRaw) % n)
		tr, err := BuildDouble(g, root, nil)
		if err != nil {
			return false
		}
		sp := new(graph.SSSPScratch).Dijkstra(g, root)
		lbl, ok := tr.LabelOf(dst)
		if !ok {
			return false
		}
		cur := root
		var weight graph.Dist
		for hops := 0; ; hops++ {
			if hops > n {
				return false
			}
			st, ok := tr.State(cur)
			if !ok {
				return false
			}
			port, delivered, err := NextPort(st, lbl)
			if err != nil {
				return false
			}
			if delivered {
				return cur == dst && weight == sp.Dist[dst]
			}
			e, ok := g.EdgeByPort(cur, port)
			if !ok {
				return false
			}
			weight += e.Weight
			cur = e.To
		}
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickRTHeightComposition(t *testing.T) {
	err := quick.Check(func(seedRaw uint16, rootRaw uint8) bool {
		rng := rand.New(rand.NewSource(int64(seedRaw)))
		n := 15 + int(seedRaw)%25
		g := graph.RandomSC(n, 3*n, 5, rng)
		root := graph.NodeID(int(rootRaw) % n)
		tr, err := BuildDouble(g, root, nil)
		if err != nil {
			return false
		}
		// The tree spans g, so its distances are g's own.
		fwd, rev := new(graph.SSSPScratch).Dijkstra(g, root), new(graph.SSSPScratch).DijkstraRev(g, root)
		for v := 0; v < n; v++ {
			from, ok1 := tr.DistFrom(graph.NodeID(v))
			to, ok2 := tr.DistTo(graph.NodeID(v))
			if !ok1 || !ok2 || from != fwd.Dist[v] || to != rev.Dist[v] {
				return false
			}
			if tr.RoundtripAt(tr.Slot(graph.NodeID(v))) != from+to {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickLabelBoundOverSeeds(t *testing.T) {
	err := quick.Check(func(seedRaw uint16) bool {
		rng := rand.New(rand.NewSource(int64(seedRaw)))
		n := 32 + int(seedRaw)%96
		g := graph.RandomSC(n, 3*n, 6, rng)
		tr, err := BuildDouble(g, 0, nil)
		if err != nil {
			return false
		}
		bound := theoreticalLabelBound(n)
		for v := 0; v < n; v++ {
			lbl, _ := tr.LabelOf(graph.NodeID(v))
			if len(lbl.Light) > bound {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickInTreeNextHopDecreasesDistance(t *testing.T) {
	// Following InPort must strictly decrease the remaining distance to
	// the root — the invariant that makes in-tree routing loop-free.
	err := quick.Check(func(seedRaw uint16, rootRaw uint8) bool {
		rng := rand.New(rand.NewSource(int64(seedRaw)))
		n := 15 + int(seedRaw)%25
		g := graph.RandomSC(n, 3*n, 5, rng)
		root := graph.NodeID(int(rootRaw) % n)
		tr, err := BuildDouble(g, root, nil)
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if graph.NodeID(v) == root {
				continue
			}
			port, ok := tr.InPort(graph.NodeID(v))
			if !ok {
				return false
			}
			e, ok := g.EdgeByPort(graph.NodeID(v), port)
			if !ok {
				return false
			}
			dv, _ := tr.DistTo(graph.NodeID(v))
			dn, _ := tr.DistTo(e.To)
			if dn >= dv {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAccessorsMatchMemberMap: every by-node accessor must answer as a
// map keyed by the members would — the member's own slot for a member,
// (zero, false) for everyone else, negative and past-the-end ids
// included — on whole-graph trees (the index is the identity there) and
// on roundtrip balls around the root (a proper subset, hashed).
func TestAccessorsMatchMemberMap(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(40)
		g := graph.RandomSC(n, 3*n, 6, rng)
		g.AssignPorts(rng.Intn)
		m := graph.AllPairs(g)
		root := graph.NodeID(rng.Intn(n))
		// A roundtrip ball is strongly connected through itself: a node on
		// a shortest root->w->root cycle is no farther from root than w.
		var ball []graph.NodeID
		radius := m.R(root, graph.NodeID(rng.Intn(n)))
		for _, v := range rng.Perm(n) { // BuildDouble sorts its members
			if m.R(root, graph.NodeID(v)) <= radius {
				ball = append(ball, graph.NodeID(v))
			}
		}
		for _, members := range [][]graph.NodeID{nil, ball} {
			tr, err := BuildDouble(g, root, members)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			slot := make(map[graph.NodeID]int, len(tr.Members))
			for i, v := range tr.Members {
				slot[v] = i
			}
			for v := graph.NodeID(-3); v < graph.NodeID(n+3); v++ {
				i, member := slot[v]
				if !member {
					i = -1
				}
				if got := tr.Slot(v); got != i {
					t.Fatalf("seed %d: Slot(%d) = %d, member map says %d", seed, v, got, i)
				}
				if tr.Contains(v) != member {
					t.Fatalf("seed %d: Contains(%d) = %v", seed, v, !member)
				}
				// What a map keyed by the members would answer.
				type answers struct {
					state            State
					label            Label
					port             graph.PortID
					from, to         graph.Dist
					ok, portOK       bool
					labelAt, roundAt any
				}
				want := answers{}
				if member {
					want = answers{
						state: tr.states[i], label: tr.labels[i], from: tr.distFrom[i], to: tr.distTo[i], ok: true,
						labelAt: tr.LabelAt(i), roundAt: tr.RoundtripAt(i),
					}
					if v != root { // the map never held an in-port for the root
						want.port, want.portOK = tr.inPort[i], true
					}
				}
				got := answers{}
				var okState, okLabel, okFrom, okTo bool
				got.state, okState = tr.State(v)
				got.label, okLabel = tr.LabelOf(v)
				got.port, got.portOK = tr.InPort(v)
				got.from, okFrom = tr.DistFrom(v)
				got.to, okTo = tr.DistTo(v)
				got.ok = okState
				if okLabel != okState || okFrom != okState || okTo != okState {
					t.Fatalf("seed %d node %d: accessors disagree on membership", seed, v)
				}
				if member {
					got.labelAt, got.roundAt = got.label, got.from+got.to
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d node %d (member %v):\n got %+v\nwant %+v", seed, v, member, got, want)
				}
			}
		}
	}
}

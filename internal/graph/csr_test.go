package graph

import (
	"math/rand"
	"sync"
	"testing"
)

// scanEdgeByPort is the pre-CSR O(degree) reference implementation.
func scanEdgeByPort(g *Graph, u NodeID, port PortID) (Edge, bool) {
	for _, e := range g.Out(u) {
		if e.Port == port {
			return e, true
		}
	}
	return Edge{}, false
}

// TestEdgeByPortMatchesScan checks the sealed port-table lookup
// against the linear scan for every (node, port) pair, with adversarial
// (non-sequential, sparse) port labels.
func TestEdgeByPortMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := RandomSC(60, 240, 9, rng)
	g.AssignPorts(rng.Intn)
	space := PortID(4 * g.N())
	for u := 0; u < g.N(); u++ {
		for p := PortID(0); p < space; p++ {
			got, okGot := g.EdgeByPort(NodeID(u), p)
			want, okWant := scanEdgeByPort(g, NodeID(u), p)
			if okGot != okWant || got != want {
				t.Fatalf("EdgeByPort(%d,%d) = (%v,%v), scan (%v,%v)", u, p, got, okGot, want, okWant)
			}
		}
	}
}

// TestPortToAndHasEdge cross-checks the O(1) pair lookups against the
// adjacency on a relabeled graph, including negatives.
func TestPortToAndHasEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := RandomSC(40, 150, 5, rng)
	g.AssignPorts(rng.Intn)
	present := make(map[uint64]PortID)
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Out(NodeID(u)) {
			present[pairKey(NodeID(u), e.To)] = e.Port
		}
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			port, ok := g.PortTo(NodeID(u), NodeID(v))
			wantPort, wantOk := present[pairKey(NodeID(u), NodeID(v))]
			if ok != wantOk || (ok && port != wantPort) {
				t.Fatalf("PortTo(%d,%d) = (%d,%v), want (%d,%v)", u, v, port, ok, wantPort, wantOk)
			}
			if g.HasEdge(NodeID(u), NodeID(v)) != wantOk {
				t.Fatalf("HasEdge(%d,%d) = %v, want %v", u, v, !wantOk, wantOk)
			}
		}
	}
}

// TestMutationInvalidatesIndex interleaves lookups (which seal the CSR
// index) with mutations (which must invalidate it) and checks the
// lookups always see the current graph.
func TestMutationInvalidatesIndex(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	if _, ok := g.EdgeByPort(0, 0); !ok { // seals
		t.Fatal("missing initial edge by port")
	}
	g.MustAddEdge(0, 2, 1) // default port 1; must invalidate the index
	e, ok := g.EdgeByPort(0, 1)
	if !ok || e.To != 2 {
		t.Fatalf("EdgeByPort after AddEdge = (%v,%v), want edge to 2", e, ok)
	}
	rng := rand.New(rand.NewSource(3))
	g.AssignPorts(rng.Intn) // relabels; must invalidate again
	for _, e := range g.Out(0) {
		got, ok := g.EdgeByPort(0, e.Port)
		if !ok || got != e {
			t.Fatalf("EdgeByPort(0,%d) after AssignPorts = (%v,%v), want %v", e.Port, got, ok, e)
		}
	}
	if _, ok := g.EdgeByPort(0, -1); ok {
		t.Fatal("EdgeByPort matched a label that does not exist")
	}
}

// TestConcurrentSealing has many goroutines trigger the first index
// build at once and then read through it; run with -race this checks the
// double-checked sealing protocol.
func TestConcurrentSealing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := RandomSC(50, 200, 4, rng)
	g.AssignPorts(rng.Intn)
	type snap struct {
		u    NodeID
		e    Edge
		port PortID
	}
	var want []snap
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Out(NodeID(u)) {
			want = append(want, snap{NodeID(u), e, e.Port})
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range want {
				e, ok := g.EdgeByPort(s.u, s.port)
				if !ok || e != s.e {
					t.Errorf("concurrent EdgeByPort(%d,%d) = (%v,%v), want %v", s.u, s.port, e, ok, s.e)
					return
				}
				if p, ok := g.PortTo(s.u, s.e.To); !ok || p != s.port {
					t.Errorf("concurrent PortTo(%d,%d) = (%d,%v), want %d", s.u, s.e.To, p, ok, s.port)
					return
				}
				out := g.Out(s.u)
				if len(out) == 0 {
					t.Errorf("concurrent Out(%d) empty", s.u)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestReversePreservesPorts locks in the documented reverse contract:
// the reversed edge (v,u) keeps the port of (u,v) unless that label is
// already taken among v's reversed out-edges, in which case it falls
// back to the smallest unused value — and labels stay unique per node
// either way.
func TestReversePreservesPorts(t *testing.T) {
	// Collision-free case: a cycle. Every reversed edge must keep its
	// original label exactly.
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(2, 3, 3)
	g.MustAddEdge(3, 0, 4)
	rng := rand.New(rand.NewSource(13))
	g.AssignPorts(rng.Intn)
	r := g.reverse()
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Out(NodeID(u)) {
			p, ok := r.PortTo(e.To, NodeID(u))
			if !ok {
				t.Fatalf("Reverse lost edge (%d,%d)", e.To, u)
			}
			if p != e.Port {
				t.Fatalf("collision-free Reverse changed port of (%d,%d): %d -> %d", u, e.To, e.Port, p)
			}
		}
	}

	// Forced collision: two edges into node 2 carrying the same label at
	// their tails; after reversal node 2 has both as out-edges and must
	// keep one label and re-label the other uniquely.
	h := New(3)
	h.MustAddEdge(0, 2, 1)
	h.MustAddEdge(1, 2, 1)
	h.setPort(0, 0, 5)
	h.setPort(1, 0, 5)
	hr := h.reverse()
	ports := map[PortID]bool{}
	kept := false
	for _, e := range hr.Out(2) {
		if ports[e.Port] {
			t.Fatalf("Reverse produced duplicate port %d at node 2", e.Port)
		}
		ports[e.Port] = true
		if e.Port == 5 {
			kept = true
		}
	}
	if !kept {
		t.Fatal("Reverse preserved neither of the colliding original labels")
	}
	if len(ports) != 2 {
		t.Fatalf("node 2 should have 2 reversed out-edges, got %d", len(ports))
	}

	// Round-trip sanity on a random graph: reversing twice preserves the
	// edge set and weights, and every node's ports stay unique.
	big := RandomSC(30, 90, 6, rng)
	big.AssignPorts(rng.Intn)
	rr := big.reverse().reverse()
	if rr.M() != big.M() {
		t.Fatalf("double Reverse changed edge count: %d -> %d", big.M(), rr.M())
	}
	for u := 0; u < big.N(); u++ {
		seen := map[PortID]bool{}
		for _, e := range rr.Out(NodeID(u)) {
			if seen[e.Port] {
				t.Fatalf("double Reverse duplicate port %d at %d", e.Port, u)
			}
			seen[e.Port] = true
			if !big.HasEdge(NodeID(u), e.To) {
				t.Fatalf("double Reverse invented edge (%d,%d)", u, e.To)
			}
		}
	}
}

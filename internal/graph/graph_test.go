package graph

import (
	"math/rand"
	"testing"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 {
		t.Fatalf("N() = %d, want 5", g.N())
	}
	if g.M() != 0 {
		t.Fatalf("M() = %d, want 0", g.M())
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	tests := []struct {
		name    string
		u, v    NodeID
		w       Dist
		wantErr bool
	}{
		{"valid", 0, 1, 5, false},
		{"duplicate", 0, 1, 7, true},
		{"self-loop", 1, 1, 1, true},
		{"zero weight", 1, 2, 0, true},
		{"negative weight", 1, 2, -3, true},
		{"out of range u", 3, 0, 1, true},
		{"out of range v", 0, 3, 1, true},
		{"negative node", -1, 0, 1, true},
		{"weight at Inf", 1, 2, Inf, true},
		{"second valid", 1, 2, 9, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := g.AddEdge(tc.u, tc.v, tc.w)
			if (err != nil) != tc.wantErr {
				t.Fatalf("AddEdge(%d,%d,%d) error = %v, wantErr = %v", tc.u, tc.v, tc.w, err, tc.wantErr)
			}
		})
	}
	if g.M() != 2 {
		t.Fatalf("M() = %d, want 2", g.M())
	}
}

func TestHasEdgeAndPortTo(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(0, 2, 3)
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 2) {
		t.Fatal("expected edges missing")
	}
	if g.HasEdge(1, 0) {
		t.Fatal("unexpected edge (1,0)")
	}
	p, ok := g.PortTo(0, 2)
	if !ok {
		t.Fatal("PortTo(0,2) not found")
	}
	e, ok := g.EdgeByPort(0, p)
	if !ok || e.To != 2 {
		t.Fatalf("EdgeByPort(0,%d) = %+v, %v; want edge to 2", p, e, ok)
	}
}

func TestDefaultPortsAreSequential(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 2, 1)
	for i, e := range g.Out(0) {
		if e.Port != PortID(i) {
			t.Fatalf("default port of edge %d = %d, want %d", i, e.Port, i)
		}
	}
}

func TestAssignPortsUniquePerNode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := RandomSC(64, 256, 10, rng)
	for u := 0; u < g.N(); u++ {
		seen := map[PortID]bool{}
		for _, e := range g.Out(NodeID(u)) {
			if seen[e.Port] {
				t.Fatalf("node %d has duplicate port %d", u, e.Port)
			}
			seen[e.Port] = true
			if e.Port < 0 || int(e.Port) >= 4*g.N() {
				t.Fatalf("port %d outside adversarial space [0,%d)", e.Port, 4*g.N())
			}
		}
	}
}

func TestPortsAreAdversarial(t *testing.T) {
	// After AssignPorts, at least one node should have a port label that
	// differs from the sequential default — i.e. relabeling actually
	// happened (fixed-port model, §1.1.3).
	rng := rand.New(rand.NewSource(7))
	g := RandomSC(32, 128, 1, rng)
	nonSequential := false
	for u := 0; u < g.N() && !nonSequential; u++ {
		for i, e := range g.Out(NodeID(u)) {
			if e.Port != PortID(i) {
				nonSequential = true
				break
			}
		}
	}
	if !nonSequential {
		t.Fatal("AssignPorts left every port sequential; adversarial relabeling failed")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	c := g.Clone()
	c.MustAddEdge(1, 2, 1)
	if g.M() != 1 || c.M() != 2 {
		t.Fatalf("clone not independent: g.M=%d c.M=%d", g.M(), c.M())
	}
	if g.HasEdge(1, 2) {
		t.Fatal("mutation of clone leaked into original")
	}
}

// reverse returns the graph with every edge direction flipped. Each
// reversed edge (v,u) keeps the port label of the original edge (u,v)
// whenever that label is still free among v's reversed out-edges;
// colliding labels fall back to the smallest unused non-negative value.
// Reversing twice therefore preserves most port labels, but callers that
// need specific labels after a reverse should call AssignPorts (or check
// PortTo) rather than assume preservation.
func (g *Graph) reverse() *Graph {
	r := New(g.N())
	used := make([]map[PortID]bool, g.N())
	for u := range used {
		used[u] = make(map[PortID]bool)
	}
	var collided []NodeID // heads (in r) that need fallback labels, in edge order
	var colSlot []int32
	for u, edges := range g.out {
		for _, e := range edges {
			r.MustAddEdge(e.To, NodeID(u), e.Weight)
			slot := int32(len(r.out[e.To]) - 1)
			if !used[e.To][e.Port] {
				used[e.To][e.Port] = true
				r.out[e.To][slot].Port = e.Port
			} else {
				collided = append(collided, e.To)
				colSlot = append(colSlot, slot)
			}
		}
	}
	for i, v := range collided {
		p := PortID(0)
		for used[v][p] {
			p++
		}
		used[v][p] = true
		r.out[v][colSlot[i]].Port = p
	}
	r.invalidate()
	return r
}

func TestReverse(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 4)
	g.MustAddEdge(1, 2, 5)
	r := g.reverse()
	if !r.HasEdge(1, 0) || !r.HasEdge(2, 1) {
		t.Fatal("Reverse missing flipped edges")
	}
	if r.HasEdge(0, 1) {
		t.Fatal("Reverse kept original edge direction")
	}
	if r.M() != 2 {
		t.Fatalf("Reverse M() = %d, want 2", r.M())
	}
}

func TestInEdgesMirrorOutEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := RandomSC(50, 200, 9, rng)
	outCount := 0
	for u := 0; u < g.N(); u++ {
		outCount += len(g.Out(NodeID(u)))
		for _, e := range g.Out(NodeID(u)) {
			found := false
			for _, ie := range g.In(e.To) {
				if ie.From == NodeID(u) && ie.Weight == e.Weight {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge (%d,%d) missing from in-adjacency", u, e.To)
			}
		}
	}
	inCount := 0
	for u := 0; u < g.N(); u++ {
		inCount += len(g.In(NodeID(u)))
	}
	if outCount != inCount || outCount != g.M() {
		t.Fatalf("edge accounting mismatch: out=%d in=%d M=%d", outCount, inCount, g.M())
	}
}

func TestTotalAndMaxWeight(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 4)
	g.MustAddEdge(1, 2, 7)
	g.MustAddEdge(2, 0, 2)
	if got := g.MaxWeight(); got != 7 {
		t.Fatalf("MaxWeight = %d, want 7", got)
	}
}

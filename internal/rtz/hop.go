package rtz

import (
	"fmt"

	"rtroute/internal/cover"
	"rtroute/internal/graph"
	"rtroute/internal/tree"
)

// Handshake is R2(u,v) (§3.3): the name of the most convenient double
// tree for routing between u and v, together with the topology-dependent
// tree addresses of both endpoints. It is valid only at u and v (and
// inside the tree), not globally — exactly the limitation §3.3 notes.
type Handshake struct {
	Ref    cover.TreeRef
	ULabel tree.Label
	VLabel tree.Label
}

// Words returns the handshake size in machine words (o(log^2 n) bits).
func (hs Handshake) Words() int { return 2 + hs.ULabel.Words() + hs.VLabel.Words() }

// HopEntry is a node's O(1) state for one double-tree it belongs to.
type HopEntry struct {
	Ref    cover.TreeRef
	State  tree.State
	InPort graph.PortID
	IsRoot bool
}

// HopTable is the node-local storage of the hop substrate: one entry per
// double-tree containing the node, across all levels of the hierarchy,
// in (level, index) order.
type HopTable struct {
	Self  graph.NodeID
	Trees []HopEntry
}

// Words returns the table size in machine words.
func (t *HopTable) Words() int { return 1 + 9*len(t.Trees) }

// Find returns the position of tree ref's entry in t.Trees. A node
// belongs to few trees (7.6 on average and 16 at most on a random
// 1,024-node graph at k = 2), where a scan of the refs is cheaper than
// a bisection's compares.
func (t *HopTable) Find(ref cover.TreeRef) (int, bool) {
	for i := range t.Trees {
		if t.Trees[i].Ref == ref {
			return i, true
		}
	}
	return 0, false
}

// HopHeader is the packet state for one Hop(u,v) leg.
type HopHeader struct {
	Ref        cover.TreeRef
	Target     tree.Label
	Descending bool
}

// Words returns the header size in machine words.
func (h HopHeader) Words() int { return 3 + h.Target.Words() }

// HopScheme is the Lemma 5 substrate: double-tree covers at geometric
// scales with root-relayed routing inside a named tree.
type HopScheme struct {
	Hierarchy *cover.Hierarchy
	Tables    []*HopTable

	g *graph.Graph
}

// NewHop builds the hop substrate over a cover hierarchy of g
// (cover.BuildHierarchy), which callers may share across substrates.
func NewHop(g *graph.Graph, h *cover.Hierarchy) (*HopScheme, error) {
	if h.N() != g.N() {
		return nil, fmt.Errorf("rtz: hierarchy over %d nodes cannot serve a %d-node graph", h.N(), g.N())
	}
	s := &HopScheme{Hierarchy: h, g: g, Tables: make([]*HopTable, g.N())}
	for v := 0; v < g.N(); v++ {
		refs := h.Memberships(graph.NodeID(v))
		tab := &HopTable{Self: graph.NodeID(v), Trees: make([]HopEntry, 0, len(refs))}
		for _, ref := range refs {
			t := h.Tree(ref)
			st, ok := t.State(graph.NodeID(v))
			if !ok {
				return nil, fmt.Errorf("rtz: membership %v lacks state for %d", ref, v)
			}
			e := HopEntry{Ref: ref, State: st, IsRoot: t.Root == graph.NodeID(v)}
			if !e.IsRoot {
				p, ok := t.InPort(graph.NodeID(v))
				if !ok {
					return nil, fmt.Errorf("rtz: membership %v lacks in-port for %d", ref, v)
				}
				e.InPort = p
			}
			tab.Trees = append(tab.Trees, e)
		}
		s.Tables[v] = tab
	}
	return s, nil
}

// Graph returns the network the substrate was built over.
func (s *HopScheme) Graph() *graph.Graph { return s.g }

// R2 returns the handshake for the pair (u,v) plus the roundtrip cost
// bound through the tree root.
func (s *HopScheme) R2(u, v graph.NodeID) (Handshake, graph.Dist, error) {
	ref, cost, ok := s.Hierarchy.BestTree(u, v)
	if !ok {
		return Handshake{}, 0, fmt.Errorf("rtz: no shared double-tree for (%d,%d)", u, v)
	}
	t := s.Hierarchy.Tree(ref)
	ul, ok1 := t.LabelOf(u)
	vl, ok2 := t.LabelOf(v)
	if !ok1 || !ok2 {
		return Handshake{}, 0, fmt.Errorf("rtz: tree %v missing labels for (%d,%d)", ref, u, v)
	}
	return Handshake{Ref: ref, ULabel: ul, VLabel: vl}, cost, nil
}

// ForwardHop is the local forwarding function for a hop leg: climb the
// named tree's in-tree to the root, then descend the out-tree to the
// target label. Deliver as soon as the local state matches the target.
func ForwardHop(tab *HopTable, h *HopHeader) (port graph.PortID, delivered bool, err error) {
	i, ok := tab.Find(h.Ref)
	if !ok {
		return 0, false, fmt.Errorf("rtz: node %d is outside tree %v", tab.Self, h.Ref)
	}
	e := &tab.Trees[i]
	if e.State.Tin == h.Target.Tin {
		return 0, true, nil
	}
	if !h.Descending {
		if e.IsRoot {
			h.Descending = true
		} else {
			return e.InPort, false, nil
		}
	}
	p, done, err := tree.NextPort(e.State, h.Target)
	if err != nil {
		return 0, false, fmt.Errorf("rtz: hop descent at %d: %w", tab.Self, err)
	}
	if done {
		return 0, true, nil
	}
	return p, false, nil
}

// RouteHop simulates one leg of Hop routing from src to the given target
// label within the handshake's tree, returning path weight and hops.
func (s *HopScheme) RouteHop(src graph.NodeID, ref cover.TreeRef, target tree.Label) (graph.Dist, int, error) {
	h := &HopHeader{Ref: ref, Target: target}
	cur := src
	var weight graph.Dist
	hops := 0
	maxHops := 4 * s.g.N()
	for {
		port, delivered, err := ForwardHop(s.Tables[cur], h)
		if err != nil {
			return 0, 0, err
		}
		if delivered {
			return weight, hops, nil
		}
		e, ok := s.g.EdgeByPort(cur, port)
		if !ok {
			return 0, 0, fmt.Errorf("rtz: node %d has no port %d", cur, port)
		}
		weight += e.Weight
		cur = e.To
		if hops++; hops > maxHops {
			return 0, 0, fmt.Errorf("rtz: hop route exceeded %d hops", maxHops)
		}
	}
}

// HopRoundtrip simulates the full Hop(u,v) roundtrip u -> v -> u through
// the handshake tree, the unit of cost in §3's analysis.
func (s *HopScheme) HopRoundtrip(u, v graph.NodeID) (graph.Dist, error) {
	hs, _, err := s.R2(u, v)
	if err != nil {
		return 0, err
	}
	out, _, err := s.RouteHop(u, hs.Ref, hs.VLabel)
	if err != nil {
		return 0, err
	}
	back, _, err := s.RouteHop(v, hs.Ref, hs.ULabel)
	if err != nil {
		return 0, err
	}
	return out + back, nil
}

// MaxTableWords returns the largest node table in words.
func (s *HopScheme) MaxTableWords() int {
	m := 0
	for _, t := range s.Tables {
		if w := t.Words(); w > m {
			m = w
		}
	}
	return m
}

// AvgTableWords returns the mean node table size in words.
func (s *HopScheme) AvgTableWords() float64 {
	total := 0
	for _, t := range s.Tables {
		total += t.Words()
	}
	return float64(total) / float64(len(s.Tables))
}

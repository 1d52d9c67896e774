package rtz

import (
	"slices"
	"strings"
	"testing"

	"rtroute/internal/cover"
	"rtroute/internal/graph"
	"rtroute/internal/tree"
)

func TestForwardDirectPhaseClosureViolation(t *testing.T) {
	// A header claiming PhaseDirect at a node without a direct entry is
	// a protocol violation the forwarder must name explicitly.
	s, _, _ := buildScheme(t, 50, 20, 60, 4)
	var victim graph.NodeID = -1
	var target graph.NodeID
	for v := 0; v < 20 && victim < 0; v++ {
		for y := 0; y < 20; y++ {
			if v == y {
				continue
			}
			if _, ok := s.Tables[v].DirectPort(graph.NodeID(y)); !ok {
				victim, target = graph.NodeID(v), graph.NodeID(y)
				break
			}
		}
	}
	if victim < 0 {
		t.Skip("every node stores every destination directly (tiny graph)")
	}
	h := &Header{Dest: target, Label: s.LabelOf(target), Phase: PhaseDirect}
	_, _, err := Forward(s.Tables[victim], h)
	if err == nil || !strings.Contains(err.Error(), "closure") {
		t.Fatalf("closure violation not diagnosed: %v", err)
	}
}

// TestHopRoundtripSelf: a leg toward the node's own label delivers where
// it starts, in every tree the node belongs to, so a self roundtrip
// weighs 0 whichever tree R2(u, u) names.
func TestHopRoundtripSelf(t *testing.T) {
	h, tabs := hopTables(t, 51, 16, 48)
	for _, e := range tabs[3].Trees {
		lbl, _ := h.Tree(e.Ref).LabelOf(3)
		if _, delivered, err := ForwardHop(&tabs[3], &HopHeader{Ref: e.Ref, Target: lbl}); err != nil || !delivered {
			t.Fatalf("leg to its own label in tree %v: delivered %v, err %v", e.Ref, delivered, err)
		}
	}
}

// TestRouteHopFromOutsideTree: a hop leg started at a node outside its
// tree fails at once.
func TestRouteHopFromOutsideTree(t *testing.T) {
	h, tabs := hopTables(t, 52, 20, 60)
	// Find a level-0 tree and a node outside it.
	for ti, tr := range h.Levels[0].Trees {
		if len(tr.Members) == len(tabs) {
			continue
		}
		outside := graph.NodeID(-1)
		for v := range tabs {
			if !slices.Contains(tr.Members, graph.NodeID(v)) {
				outside = graph.NodeID(v)
				break
			}
		}
		if outside < 0 {
			continue
		}
		lbl, _ := tr.LabelOf(tr.Root)
		ref := cover.TreeRef{Level: 0, Index: int32(ti)}
		if _, _, err := ForwardHop(&tabs[outside], &HopHeader{Ref: ref, Target: lbl}); err == nil {
			t.Fatal("routing from outside the tree did not fail")
		}
		return
	}
	t.Skip("all level-0 trees span V on this instance")
}

func TestSchemeLabelsAreConsistent(t *testing.T) {
	// Every label's center must be the roundtrip-nearest center, and its
	// tree label must address the node in that center's out-tree.
	s, g, m := buildScheme(t, 53, 30, 120, 5)
	for v := 0; v < g.N(); v++ {
		lbl := s.LabelOf(graph.NodeID(v))
		if lbl.Node != graph.NodeID(v) {
			t.Fatalf("label of %d names node %d", v, lbl.Node)
		}
		best := graph.Inf
		for _, w := range s.Centers {
			if r := m.R(graph.NodeID(v), w); r < best {
				best = r
			}
		}
		if got := m.R(graph.NodeID(v), lbl.Center); got != best {
			t.Fatalf("label center of %d at roundtrip %d; nearest is %d", v, got, best)
		}
	}
}

func TestHandshakeWords(t *testing.T) {
	hs := Handshake{
		ULabel: tree.Label{Tin: 1, Light: []tree.LightHop{{BranchTin: 0, Port: 2}}},
		VLabel: tree.Label{Tin: 5},
	}
	// 2 (ref) + (1+2) + 1 = 6 words.
	if got := hs.Words(); got != 6 {
		t.Fatalf("Handshake.Words() = %d, want 6", got)
	}
}

func TestHeaderWordsAccounting(t *testing.T) {
	s, _, _ := buildScheme(t, 55, 16, 48, 3)
	lbl := s.LabelOf(5)
	h := Header{Dest: 5, Label: lbl}
	if h.Words() != 2+lbl.Words() {
		t.Fatalf("Header.Words() = %d, want %d", h.Words(), 2+lbl.Words())
	}
}

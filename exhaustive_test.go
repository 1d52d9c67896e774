package rtroute

import (
	"math/rand"
	"testing"

	"rtroute/internal/graph"
)

// TestExhaustiveFourNodeGraphs enumerates EVERY strongly connected
// digraph on 4 nodes (all 2^12 subsets of the 12 possible directed
// edges, unit weights) and asserts the stretch-6 bound on every ordered
// pair of every one of them. Worst-case bounds deserve exhaustive small
// cases, not just random sampling.
func TestExhaustiveFourNodeGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumeration skipped in -short")
	}
	type edge struct{ u, v NodeID }
	var edges []edge
	for u := NodeID(0); u < 4; u++ {
		for v := NodeID(0); v < 4; v++ {
			if u != v {
				edges = append(edges, edge{u, v})
			}
		}
	}
	if len(edges) != 12 {
		t.Fatalf("expected 12 candidate edges, got %d", len(edges))
	}

	rng := rand.New(rand.NewSource(1))
	checked := 0
	for mask := 0; mask < 1<<12; mask++ {
		g := graph.New(4)
		for i, e := range edges {
			if mask&(1<<i) != 0 {
				g.MustAddEdge(e.u, e.v, 1)
			}
		}
		if !StronglyConnected(g) {
			continue
		}
		g.AssignPorts(rng.Intn)
		sys, err := NewSystem(g, ReversedNaming(4))
		if err != nil {
			t.Fatalf("mask %d: %v", mask, err)
		}
		sch, err := sys.Build(StretchSix, WithSeed(int64(mask)))
		if err != nil {
			t.Fatalf("mask %d: build: %v", mask, err)
		}
		for u := int32(0); u < 4; u++ {
			for v := int32(0); v < 4; v++ {
				if u == v {
					continue
				}
				tr, err := sch.Roundtrip(u, v)
				if err != nil {
					t.Fatalf("mask %d: roundtrip (%d,%d): %v", mask, u, v, err)
				}
				if r := sys.R(u, v); tr.Weight() > 6*r {
					t.Fatalf("mask %d: stretch-6 violated at (%d,%d): %d > %d",
						mask, u, v, tr.Weight(), 6*r)
				}
			}
		}
		checked++
	}
	// Exactly 1606 of the 4096 labeled 4-node digraphs are strongly
	// connected (OEIS A003030 row sums give the count for labeled SC
	// digraphs on 4 nodes = 1606); assert the filter found a plausible
	// count so the test cannot silently go vacuous.
	if checked < 1000 {
		t.Fatalf("only %d strongly connected graphs enumerated; filter broken?", checked)
	}
	t.Logf("exhaustively verified %d strongly connected 4-node digraphs", checked)
}

// TestExhaustiveThreeNodeWeighted enumerates all strongly connected
// 3-node digraphs with ALL weight assignments from {1,3,9} and asserts
// the bound for every scheme — full coverage of a small weighted space.
func TestExhaustiveThreeNodeWeighted(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumeration skipped in -short")
	}
	type edge struct{ u, v NodeID }
	var edges []edge
	for u := NodeID(0); u < 3; u++ {
		for v := NodeID(0); v < 3; v++ {
			if u != v {
				edges = append(edges, edge{u, v})
			}
		}
	}
	weights := []Dist{1, 3, 9}
	rng := rand.New(rand.NewSource(2))
	checked := 0
	for mask := 0; mask < 1<<6; mask++ {
		// Enumerate weight assignments for the selected edges.
		var sel []edge
		for i, e := range edges {
			if mask&(1<<i) != 0 {
				sel = append(sel, e)
			}
		}
		assignments := 1
		for range sel {
			assignments *= len(weights)
		}
		for a := 0; a < assignments; a++ {
			g := graph.New(3)
			x := a
			for _, e := range sel {
				g.MustAddEdge(e.u, e.v, weights[x%len(weights)])
				x /= len(weights)
			}
			if !StronglyConnected(g) {
				break // connectivity is weight-independent; skip all assignments
			}
			g.AssignPorts(rng.Intn)
			sys, err := NewSystem(g, ReversedNaming(3))
			if err != nil {
				t.Fatal(err)
			}
			s6, err := sys.Build(StretchSix, WithSeed(int64(a)))
			if err != nil {
				t.Fatal(err)
			}
			poly, err := sys.Build(Polynomial, WithK(2))
			if err != nil {
				t.Fatal(err)
			}
			for u := int32(0); u < 3; u++ {
				for v := int32(0); v < 3; v++ {
					if u == v {
						continue
					}
					r := sys.R(u, v)
					tr, err := s6.Roundtrip(u, v)
					if err != nil {
						t.Fatalf("mask %d a %d: s6 (%d,%d): %v", mask, a, u, v, err)
					}
					if tr.Weight() > 6*r {
						t.Fatalf("mask %d a %d: s6 stretch violated at (%d,%d)", mask, a, u, v)
					}
					tr, err = poly.Roundtrip(u, v)
					if err != nil {
						t.Fatalf("mask %d a %d: poly (%d,%d): %v", mask, a, u, v, err)
					}
					if tr.Weight() > 36*r {
						t.Fatalf("mask %d a %d: poly stretch violated at (%d,%d)", mask, a, u, v)
					}
				}
			}
			checked++
		}
	}
	if checked < 500 {
		t.Fatalf("only %d weighted instances enumerated", checked)
	}
	t.Logf("exhaustively verified %d weighted 3-node instances", checked)
}

package graph

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// edgeByPortBinary is the reference the O(1) tables are locked to: sort
// u's out-edges by port label, binary-search the label.
func edgeByPortBinary(idx *csrIndex, u NodeID, port PortID) (Edge, bool) {
	edges := append([]Edge(nil), idx.outEdges[idx.outStart[u]:idx.outStart[u+1]]...)
	sort.Slice(edges, func(i, j int) bool { return edges[i].Port < edges[j].Port })
	i := sort.Search(len(edges), func(i int) bool { return edges[i].Port >= port })
	if i < len(edges) && edges[i].Port == port {
		return edges[i], true
	}
	return Edge{}, false
}

// probePorts collects, for node u, every live port label plus a halo of
// absent probes around each (gaps, off-by-ones, negatives).
func probePorts(g *Graph, u NodeID) []PortID {
	var out []PortID
	for _, e := range g.out[u] {
		out = append(out, e.Port, e.Port-1, e.Port+1, e.Port+17, -e.Port-3)
	}
	out = append(out, 0, -1, 1<<20, math.MinInt32, math.MaxInt32)
	return out
}

// checkPortEquivalence asserts that the compiled O(1) tables and the
// binary-search reference agree for every probe at every node.
func checkPortEquivalence(t *testing.T, g *Graph, label string) {
	t.Helper()
	idx := g.index()
	for u := 0; u < g.N(); u++ {
		for _, p := range probePorts(g, NodeID(u)) {
			fast, okFast := idx.edgeByPort(NodeID(u), p)
			slow, okSlow := edgeByPortBinary(idx, NodeID(u), p)
			if okFast != okSlow || fast != slow {
				t.Fatalf("%s: node %d port %d: table (%+v,%v) != binary search (%+v,%v)",
					label, u, p, fast, okFast, slow, okSlow)
			}
			pub, okPub := g.EdgeByPort(NodeID(u), p)
			if okPub != okSlow || pub != slow {
				t.Fatalf("%s: node %d port %d: EdgeByPort (%+v,%v) != binary search (%+v,%v)",
					label, u, p, pub, okPub, slow, okSlow)
			}
		}
	}
}

// TestPortTableEquivalence is the property test locking the sealed dense
// and hashed port tables to the binary-search reference, across default
// contiguous labels, adversarial AssignPorts labels, crafted sparse and
// negative-gap labelings, and post-mutation re-seals.
func TestPortTableEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		n := 6 + rng.Intn(40)
		g := RandomSC(n, 2*n+rng.Intn(4*n), 7, rng)

		// Adversarial labels from the generator (sparse: hash path).
		checkPortEquivalence(t, g, "adversarial")

		// Post-mutation re-seal: relabel everything contiguously (dense
		// path) through setPort, which must invalidate the old index.
		for u := 0; u < n; u++ {
			for slot := range g.out[u] {
				g.setPort(NodeID(u), slot, PortID(slot))
			}
		}
		checkPortEquivalence(t, g, "dense-after-reseal")

		// Negative and widely gapped labels: base offsets below zero,
		// spans too wide for the dense table at some nodes, narrow at
		// others.
		for u := 0; u < n; u++ {
			for slot := range g.out[u] {
				var p PortID
				switch u % 3 {
				case 0: // negative contiguous block
					p = PortID(slot) - 5
				case 1: // wide random gaps (hash path)
					p = PortID(slot)*PortID(997) - 400
				default: // small gaps (dense path with holes)
					p = PortID(slot)*3 + 1
				}
				g.setPort(NodeID(u), slot, p)
			}
		}
		checkPortEquivalence(t, g, "negative-gap")

		// Growing the graph must also invalidate and re-seal correctly.
		// AddEdge's default label (the out-degree) may collide with the
		// custom labels above, so give the new edge a fresh unique one —
		// the same discipline the generators follow by relabeling after
		// construction.
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, 1+Dist(rng.Intn(5)))
			g.setPort(u, len(g.out[u])-1, PortID(1<<18+len(g.out[u])))
		}
		checkPortEquivalence(t, g, "after-addedge")
	}

	// A node without out-edges compiles neither table: every probe misses.
	sink := New(3)
	sink.MustAddEdge(0, 1, 1)
	sink.MustAddEdge(0, 2, 1)
	checkPortEquivalence(t, sink, "degree-0")
}

// TestPortTablePathsExercised makes sure the property test actually
// covers both compiled representations: a contiguously labeled graph
// must compile dense tables, an AssignPorts graph must produce at least
// one hashed node.
func TestPortTablePathsExercised(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := RandomSC(64, 384, 5, rng) // AssignPorts inside the generator
	idx := g.index()
	var hashed int
	for u := 0; u < g.N(); u++ {
		if seg := idx.portSeg[u]; seg.size > 0 && !seg.dense {
			hashed++
		}
	}
	if hashed == 0 {
		t.Fatal("adversarial labeling compiled no hashed port tables")
	}

	c := New(4)
	c.MustAddEdge(0, 1, 1)
	c.MustAddEdge(0, 2, 1)
	c.MustAddEdge(1, 2, 1)
	c.MustAddEdge(2, 3, 1)
	c.MustAddEdge(3, 0, 1)
	cidx := c.index()
	for u := 0; u < 4; u++ {
		if lo, hi := cidx.outStart[u], cidx.outStart[u+1]; hi > lo {
			if !cidx.portSeg[u].dense {
				t.Fatalf("contiguously labeled node %d not compiled dense", u)
			}
		}
	}
}

// TestPortTableExtremeSpan is the int32-overflow regression guard: port
// labels at opposite ends of the int32 range (restorable via the graph
// reader) make max-min+1 overflow int32; the span math must stay in
// int64 so such nodes compile as hashed, not as a corrupt dense table.
func TestPortTableExtremeSpan(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 2, 1)
	g.MustAddEdge(1, 0, 1)
	g.MustAddEdge(2, 0, 1)
	g.setPort(0, 0, -2000000000)
	g.setPort(0, 1, 2000000000)
	checkPortEquivalence(t, g, "extreme-span")
	if e, ok := g.EdgeByPort(0, -2000000000); !ok || e.To != 1 {
		t.Fatalf("extreme negative port lookup: (%+v, %v)", e, ok)
	}
	if e, ok := g.EdgeByPort(0, 2000000000); !ok || e.To != 2 {
		t.Fatalf("extreme positive port lookup: (%+v, %v)", e, ok)
	}
}

func TestPortTableSnapshotSurvivesMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := RandomSC(16, 48, 4, rng)
	pt := g.PortTable()
	u := NodeID(0)
	e0 := g.out[u][0]
	// Mutate after snapshotting: the snapshot keeps answering from the
	// old sealed index; the graph's own lookups re-seal.
	g.setPort(u, 0, e0.Port+100)
	if got, ok := pt.EdgeByPort(u, e0.Port); !ok || got.To != e0.To {
		t.Fatalf("snapshot lost pre-mutation port %d: (%+v, %v)", e0.Port, got, ok)
	}
	if _, ok := g.EdgeByPort(u, e0.Port+100); !ok {
		t.Fatal("re-sealed graph does not see the new port")
	}
}

// FuzzPortTable decodes bytes into per-node port labels on up to ten
// nodes of out-degree 0-8 and requires every probe to equal the
// binary-search reference, before and after a SetEdgeWeight re-seal.
// A label byte with the top bit clear steps up from the node's previous
// label by its low bits (small gaps: dense segments, wrapping past
// MaxInt32 to the bottom of the range); one with it set takes the next
// four bytes as the label verbatim (scattered labels: hashed segments).
// A label already used at its node drops the edge.
func FuzzPortTable(f *testing.F) {
	f.Add([]byte{4, 3, 0, 1, 1, 2, 0, 1, 5, 4, 1, 1})
	f.Add([]byte{3, 2, 0x80, 0x7f, 0xff, 0xff, 0xfe, 1, 2, 0x80, 0x80, 0, 0, 0, 0, 1, 0x80, 0, 0, 0, 7})
	f.Add([]byte{9, 8, 0x80, 0x80, 0, 0, 0, 1, 1, 1, 0x80, 0x7f, 0xff, 0xff, 0xff, 0x80, 0, 0, 0x10, 0, 3, 0x7f, 0, 2, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := 2 + int(data[0])%9
		data = data[1:]
		g := New(n)
		for u := 0; u < n && len(data) > 0; u++ {
			deg := min(int(data[0])%9, n-1)
			data = data[1:]
			used := make(map[PortID]bool, deg)
			var port PortID
			for j := 0; j < deg && len(data) > 0; j++ {
				b := data[0]
				data = data[1:]
				if b&0x80 == 0 {
					port += PortID(b)
				} else if len(data) >= 4 {
					port = PortID(binary.BigEndian.Uint32(data))
					data = data[4:]
				}
				if used[port] {
					continue
				}
				used[port] = true
				v := NodeID((u + 1 + j) % n)
				if err := g.AddEdgePort(NodeID(u), v, Dist(1+j), port); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkPortEquivalence(t, g, "fuzz")
		if g.M() == 0 || len(data) < 2 {
			return
		}
		// Reweight one edge: the re-sealed index must agree again and
		// resolve the edge's port to its new weight.
		u := NodeID(int(data[0]) % n)
		for g.OutDegree(u) == 0 {
			u = (u + 1) % NodeID(n)
		}
		e := g.Out(u)[int(data[1])%g.OutDegree(u)]
		w := e.Weight + 1
		if data[1]&0x80 != 0 {
			w = DownWeight
		}
		if err := g.SetEdgeWeight(u, e.To, w); err != nil {
			t.Fatal(err)
		}
		checkPortEquivalence(t, g, "fuzz after reweight")
		if got, ok := g.EdgeByPort(u, e.Port); !ok || got.To != e.To || got.Weight != w {
			t.Fatalf("node %d port %d after reweight to %d: (%+v, %v)", u, e.Port, w, got, ok)
		}
	})
}

package tree

import (
	"math"
	"math/rand"
	"testing"

	"rtroute/internal/graph"
)

// routeDown simulates out-tree routing from the root to dst using only
// per-node State and the destination Label, returning the traversed path
// weight and hop count.
func routeDown(t *testing.T, g *graph.Graph, tr *Tree, dst graph.NodeID) (graph.Dist, int) {
	t.Helper()
	lbl, ok := tr.LabelOf(dst)
	if !ok {
		t.Fatalf("no label for %d", dst)
	}
	cur := tr.Root
	var weight graph.Dist
	hops := 0
	for {
		st, ok := tr.State(cur)
		if !ok {
			t.Fatalf("route left the tree at node %d", cur)
		}
		port, delivered, err := NextPort(st, lbl)
		if err != nil {
			t.Fatalf("NextPort at %d toward %d: %v", cur, dst, err)
		}
		if delivered {
			if cur != dst {
				t.Fatalf("delivered at %d, want %d", cur, dst)
			}
			return weight, hops
		}
		e, ok := g.EdgeByPort(cur, port)
		if !ok {
			t.Fatalf("node %d has no port %d", cur, port)
		}
		weight += e.Weight
		cur = e.To
		if hops++; hops > g.N() {
			t.Fatalf("routing loop toward %d", dst)
		}
	}
}

// routeUp simulates in-tree routing from src to the root via InPort.
func routeUp(t *testing.T, g *graph.Graph, tr *Tree, src graph.NodeID) graph.Dist {
	t.Helper()
	cur := src
	var weight graph.Dist
	hops := 0
	for cur != tr.Root {
		port, ok := tr.InPort(cur)
		if !ok {
			t.Fatalf("no in-port at %d", cur)
		}
		e, ok := g.EdgeByPort(cur, port)
		if !ok {
			t.Fatalf("node %d has no port %d", cur, port)
		}
		weight += e.Weight
		cur = e.To
		if hops++; hops > g.N() {
			t.Fatalf("in-tree loop from %d", src)
		}
	}
	return weight
}

func TestOutTreeRoutesAreShortestPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		g := graph.RandomSC(60, 240, 10, rng)
		root := graph.NodeID(rng.Intn(g.N()))
		tr, err := BuildDouble(g, root, nil)
		if err != nil {
			t.Fatal(err)
		}
		sp := new(graph.SSSPScratch).Dijkstra(g, root)
		for v := 0; v < g.N(); v++ {
			w, _ := routeDown(t, g, tr, graph.NodeID(v))
			if w != sp.Dist[v] {
				t.Fatalf("trial %d: route root->%d weight %d, shortest %d", trial, v, w, sp.Dist[v])
			}
		}
	}
}

func TestInTreeRoutesAreShortestPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomSC(60, 240, 10, rng)
	root := graph.NodeID(13)
	tr, err := BuildDouble(g, root, nil)
	if err != nil {
		t.Fatal(err)
	}
	rev := new(graph.SSSPScratch).DijkstraRev(g, root)
	for v := 0; v < g.N(); v++ {
		w := routeUp(t, g, tr, graph.NodeID(v))
		if w != rev.Dist[v] {
			t.Fatalf("route %d->root weight %d, shortest %d", v, w, rev.Dist[v])
		}
	}
}

func TestClusterRestrictedTree(t *testing.T) {
	// Build a double tree over a strict subset and verify distances are
	// measured within the induced subgraph (which can be longer than in
	// the full graph).
	g := graph.New(5)
	// Cycle 0->1->2->0 (cluster), plus a shortcut 1->4->2 outside.
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 10)
	g.MustAddEdge(2, 0, 1)
	g.MustAddEdge(1, 4, 1)
	g.MustAddEdge(4, 2, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 0, 1)
	members := []graph.NodeID{0, 1, 2}
	tr, err := BuildDouble(g, 0, members)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := tr.DistFrom(2)
	if d != 11 { // 0->1->2 inside the cluster; the 1->4->2 shortcut is out
		t.Fatalf("induced d(0,2) = %d, want 11", d)
	}
	if tr.Contains(4) || tr.Contains(3) {
		t.Fatal("tree contains non-members")
	}
	w, _ := routeDown(t, g, tr, 2)
	if w != 11 {
		t.Fatalf("restricted route weight %d, want 11", w)
	}
}

func TestBuildDoubleErrors(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 0, 1)
	g.MustAddEdge(1, 2, 1) // 2 has no path back inside {0,1,2}

	if _, err := BuildDouble(g, 3, []graph.NodeID{0, 1}); err == nil {
		t.Fatal("expected error: root not a member")
	}
	if _, err := BuildDouble(g, 0, []graph.NodeID{0, 1, 2}); err == nil {
		t.Fatal("expected error: member set not strongly connected")
	}
}

// rtHeight is max_v (d_C(Root,v) + d_C(v,Root)), the roundtrip height
// of the double-tree (§3.2).
func rtHeight(t *Tree) graph.Dist {
	var h graph.Dist
	for i := range t.Members {
		h = max(h, t.RoundtripAt(i))
	}
	return h
}

// theoreticalLabelBound is the heavy-path bound on light hops for a tree
// of the given size: floor(log2(size)) light edges on any path.
func theoreticalLabelBound(size int) int {
	if size <= 1 {
		return 0
	}
	return int(math.Floor(math.Log2(float64(size))))
}

func TestRTHeight(t *testing.T) {
	g := graph.Ring(8, nil) // r(v, root) = 8 for all v != root
	tr, err := BuildDouble(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h := rtHeight(tr); h != 8 {
		t.Fatalf("ring roundtrip height = %d, want 8", h)
	}
}

func TestLabelSizeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{16, 64, 256, 1024} {
		g := graph.RandomSC(n, 3*n, 8, rng)
		tr, err := BuildDouble(g, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		bound := theoreticalLabelBound(n)
		for v := 0; v < n; v++ {
			lbl, _ := tr.LabelOf(graph.NodeID(v))
			if len(lbl.Light) > bound {
				t.Fatalf("n=%d: label of %d has %d light hops, bound %d", n, v, len(lbl.Light), bound)
			}
		}
	}
}

func TestNextPortRejectsNonAncestor(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomSC(30, 90, 5, rng)
	tr, err := BuildDouble(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Find two nodes where neither is an ancestor of the other.
	for a := 1; a < g.N(); a++ {
		for b := 1; b < g.N(); b++ {
			sa, _ := tr.State(graph.NodeID(a))
			sb, _ := tr.State(graph.NodeID(b))
			disjoint := sb.Tin > sa.Tout || sb.Tout < sa.Tin
			if !disjoint {
				continue
			}
			lb, _ := tr.LabelOf(graph.NodeID(b))
			if _, _, err := NextPort(sa, lb); err == nil {
				t.Fatalf("NextPort(%d -> %d) should fail for non-ancestor", a, b)
			}
			return
		}
	}
	t.Skip("no disjoint-subtree pair found (star-shaped tree)")
}

func TestDFSIntervalsAreLaminar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomSC(80, 320, 6, rng)
	tr, err := BuildDouble(g, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	// Collect all intervals; any two must be nested or disjoint, and tins unique.
	type iv struct{ lo, hi int32 }
	ivs := make([]iv, 0, n)
	seen := map[int32]bool{}
	for v := 0; v < n; v++ {
		st, ok := tr.State(graph.NodeID(v))
		if !ok {
			t.Fatalf("missing state for %d", v)
		}
		if st.Tin < 0 || st.Tout >= int32(n) || st.Tin > st.Tout {
			t.Fatalf("bad interval [%d,%d] at %d", st.Tin, st.Tout, v)
		}
		if seen[st.Tin] {
			t.Fatalf("duplicate tin %d", st.Tin)
		}
		seen[st.Tin] = true
		ivs = append(ivs, iv{st.Tin, st.Tout})
	}
	for i := 0; i < len(ivs); i++ {
		for j := i + 1; j < len(ivs); j++ {
			a, b := ivs[i], ivs[j]
			nested := (a.lo <= b.lo && b.hi <= a.hi) || (b.lo <= a.lo && a.hi <= b.hi)
			disjoint := a.hi < b.lo || b.hi < a.lo
			if !nested && !disjoint {
				t.Fatalf("intervals [%d,%d] and [%d,%d] cross", a.lo, a.hi, b.lo, b.hi)
			}
		}
	}
}

func TestHeavyChildIsLargest(t *testing.T) {
	// Deterministic star-with-path: root 0 has children 1 (leaf) and 2,
	// where 2 heads a long path. Heavy child of 0 must be 2.
	g := graph.New(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 2, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 4, 1)
	g.MustAddEdge(4, 5, 1)
	// Return edges for strong connectivity.
	g.MustAddEdge(1, 0, 1)
	g.MustAddEdge(5, 0, 1)
	tr, err := BuildDouble(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := tr.State(0)
	s2, _ := tr.State(2)
	if st.HeavyTin != s2.Tin || st.HeavyTout != s2.Tout {
		t.Fatalf("heavy child of root should be node 2's subtree [%d,%d], got [%d,%d]",
			s2.Tin, s2.Tout, st.HeavyTin, st.HeavyTout)
	}
	// Leaf has no heavy child.
	s1, _ := tr.State(1)
	if s1.HeavyPort != -1 {
		t.Fatalf("leaf 1 has heavy port %d, want -1", s1.HeavyPort)
	}
}

func TestRootLabelDeliversImmediately(t *testing.T) {
	g := graph.Ring(5, nil)
	tr, err := BuildDouble(g, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	lbl, _ := tr.LabelOf(2)
	st, _ := tr.State(2)
	_, delivered, err := NextPort(st, lbl)
	if err != nil || !delivered {
		t.Fatalf("root label should deliver at root: delivered=%v err=%v", delivered, err)
	}
	if lbl.Words() != 1 {
		t.Fatalf("root label Words() = %d, want 1", lbl.Words())
	}
}

func TestAdversarialPortsDoNotBreakRouting(t *testing.T) {
	// Build the tree AFTER an extra adversarial port relabeling (the
	// fixed-port model) and ensure routing still delivers optimally.
	rng := rand.New(rand.NewSource(6))
	g := graph.RandomSC(50, 200, 7, rng)
	g.AssignPorts(rng.Intn) // extra scramble
	tr, err := BuildDouble(g, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := new(graph.SSSPScratch).Dijkstra(g, 9)
	for v := 0; v < g.N(); v += 3 {
		w, _ := routeDown(t, g, tr, graph.NodeID(v))
		if w != sp.Dist[v] {
			t.Fatalf("adversarial ports: route to %d has weight %d, want %d", v, w, sp.Dist[v])
		}
	}
}

func TestDoubleTreeOnGrid(t *testing.T) {
	g := graph.Grid(5, 5, nil)
	tr, err := BuildDouble(g, 12, nil) // center of the grid
	if err != nil {
		t.Fatal(err)
	}
	// Grid is bidirected: roundtrip height = 2 * eccentricity of center = 2*4.
	if h := rtHeight(tr); h != 8 {
		t.Fatalf("grid roundtrip height = %d, want 8", h)
	}
	for v := 0; v < g.N(); v++ {
		down, _ := routeDown(t, g, tr, graph.NodeID(v))
		up := routeUp(t, g, tr, graph.NodeID(v))
		if down != up {
			t.Fatalf("grid asymmetric tree distances at %d: %d vs %d", v, down, up)
		}
	}
}

// Slot returns v's position in Members, or -1 when v is not a member.
func (t *Tree) Slot(v graph.NodeID) int { return t.index.Pos(v) }

// Contains reports whether v is a member of the tree.
func (t *Tree) Contains(v graph.NodeID) bool { return t.index.Pos(v) >= 0 }

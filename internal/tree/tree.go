// Package tree implements fixed-port compact routing on rooted trees
// (Lemma 14 of the paper, after Thorup–Zwick and Fraigniaud–Gavoille):
// given a shortest-path out-tree rooted at r, every node keeps O(1) words
// of state and every destination gets an O(log n)-entry label such that
// the route from r to any node u follows the tree path exactly — in the
// fixed-port model, using only (local state, label) at each step.
//
// The package also builds in-trees (every member stores the port of its
// next hop on a shortest path toward the root) and double-trees, the
// union of the two used throughout §3 and §4.
//
// The label scheme is heavy-path decomposition: each tree node records
// its DFS interval and the port plus interval of its heavy child; a
// label lists, for every light edge on the root-to-destination path, the
// branch node's DFS entry time and the port taken there. Any root-to-node
// path crosses at most log2(n) light edges, so labels have O(log n)
// entries.
package tree

import (
	"fmt"
	"sync"

	"rtroute/internal/graph"
	"rtroute/internal/sealed"
)

// State is the O(1)-word node-local routing state for one tree.
type State struct {
	Tin, Tout           int32        // DFS interval of this node's subtree
	HeavyPort           graph.PortID // port to heavy child, -1 if leaf
	HeavyTin, HeavyTout int32        // DFS interval of the heavy child's subtree
}

// LightHop records one light edge of a root-to-node tree path: at the
// branch node whose DFS entry time is BranchTin, leave on Port.
type LightHop struct {
	BranchTin int32
	Port      graph.PortID
}

// Label is the topology-dependent address of a node within one tree.
type Label struct {
	Tin   int32
	Light []LightHop
}

// Words returns the size of the label in machine words, the unit used by
// the header-size accounting of the schemes (O(log^2 n) bits total).
func (l Label) Words() int { return 1 + 2*len(l.Light) }

// ErrNotInSubtree is reported by NextPort when the current node is not an
// ancestor of the destination — i.e. the caller violated the route-
// through-the-root discipline.
var ErrNotInSubtree = fmt.Errorf("tree: current node is not an ancestor of the destination")

// NextPort is the out-tree forwarding function: given only the current
// node's per-tree State and the destination Label, it returns the port to
// take, or delivered = true when the label addresses the current node.
func NextPort(st State, lbl Label) (port graph.PortID, delivered bool, err error) {
	if lbl.Tin == st.Tin {
		return 0, true, nil
	}
	if lbl.Tin < st.Tin || lbl.Tin > st.Tout {
		return 0, false, ErrNotInSubtree
	}
	if st.HeavyPort >= 0 && lbl.Tin >= st.HeavyTin && lbl.Tin <= st.HeavyTout {
		return st.HeavyPort, false, nil
	}
	for _, h := range lbl.Light {
		if h.BranchTin == st.Tin {
			return h.Port, false, nil
		}
	}
	return 0, false, fmt.Errorf("tree: no light-hop entry for branch node (tin=%d) toward tin=%d", st.Tin, lbl.Tin)
}

// Tree is a double-tree over a member set: a shortest-path out-tree from
// Root (with compact routing state and labels) plus an in-tree (every
// member's next-hop port toward Root on a shortest path). Distances are
// measured in the subgraph induced by the member set, as §4 requires for
// clusters.
//
// Per-member values live in slices parallel to Members, reached through
// one member→slot index, so a tree costs O(|T|) memory and an accessor
// is a probe plus a slice read.
type Tree struct {
	Root graph.NodeID
	// Members in ascending node order.
	Members []graph.NodeID

	index    sealed.Index // member -> slot in Members and the slices below
	states   []State
	labels   []Label
	inPort   []graph.PortID // 0 at the root's slot
	distFrom []graph.Dist   // d_C(Root, v)
	distTo   []graph.Dist   // d_C(v, Root)
}

// BuildDouble builds the double-tree for the given member set rooted at
// root. members == nil means all nodes of g. It fails if the induced
// subgraph does not strongly connect the members through themselves.
func BuildDouble(g *graph.Graph, root graph.NodeID, members []graph.NodeID) (*Tree, error) {
	n := g.N()
	inSet := make([]bool, n)
	if members == nil {
		members = make([]graph.NodeID, n)
		for i := range members {
			members[i] = graph.NodeID(i)
			inSet[i] = true
		}
	} else {
		sorted := append([]graph.NodeID(nil), members...)
		sortNodeIDs(sorted)
		members = sorted
		for _, v := range members {
			inSet[v] = true
		}
	}
	if !inSet[root] {
		return nil, fmt.Errorf("tree: root %d not in member set", root)
	}

	t := &Tree{
		Root:     root,
		Members:  members,
		index:    sealed.NewIndex(members),
		states:   make([]State, len(members)),
		labels:   make([]Label, len(members)),
		inPort:   make([]graph.PortID, len(members)),
		distFrom: make([]graph.Dist, len(members)),
		distTo:   make([]graph.Dist, len(members)),
	}

	// Both searches run on one pooled scratch, so each row is consumed
	// before the next search overwrites it: a hierarchy builds thousands
	// of small trees and would otherwise copy four n-sized rows for each.
	sc := scratchPool.Get().(*graph.SSSPScratch)
	defer scratchPool.Put(sc)

	// Restricted forward Dijkstra: out-tree parents.
	from := sc.DijkstraRestricted(g, root, inSet)
	for i, v := range members {
		if from.Dist[v] >= graph.Inf {
			return nil, unreachable(v, root)
		}
		t.distFrom[i] = from.Dist[v]
	}
	if err := t.buildOutRouting(g, from.Parent); err != nil {
		return nil, err
	}
	// Restricted reverse Dijkstra: in-tree next hops.
	to := sc.DijkstraRevRestricted(g, root, inSet)
	for i, v := range members {
		if to.Dist[v] >= graph.Inf {
			return nil, unreachable(v, root)
		}
		t.distTo[i] = to.Dist[v]
		if v != root {
			port, ok := g.PortTo(v, to.Parent[v])
			if !ok {
				return nil, fmt.Errorf("tree: missing edge (%d,%d) for in-tree", v, to.Parent[v])
			}
			t.inPort[i] = port
		}
	}
	return t, nil
}

var scratchPool = sync.Pool{New: func() any { return &graph.SSSPScratch{} }}

func unreachable(v, root graph.NodeID) error {
	return fmt.Errorf("tree: member %d unreachable within the induced subgraph of root %d", v, root)
}

// buildOutRouting computes DFS intervals, heavy children and labels for
// the out-tree given parent pointers. All working state is indexed by
// member slot.
func (t *Tree) buildOutRouting(g *graph.Graph, parent []graph.NodeID) error {
	m := len(t.Members)
	root := int32(t.index.Pos(t.Root))
	// Children lists in CSR form, each in ascending member order (the
	// order the DFS below visits them in).
	par := make([]int32, m)
	kidOff := make([]int32, m+1)
	for i, v := range t.Members {
		if int32(i) == root {
			par[i] = -1
			continue
		}
		p := t.index.Pos(parent[v])
		if p < 0 {
			return fmt.Errorf("tree: parent %d of member %d is outside the member set", parent[v], v)
		}
		par[i] = int32(p)
		kidOff[p+1]++
	}
	for i := 0; i < m; i++ {
		kidOff[i+1] += kidOff[i]
	}
	kids := make([]int32, kidOff[m])
	fill := append([]int32(nil), kidOff[:m]...)
	for i := range t.Members {
		if p := par[i]; p >= 0 {
			kids[fill[p]] = int32(i)
			fill[p]++
		}
	}
	children := func(i int32) []int32 { return kids[kidOff[i]:kidOff[i+1]] }

	// Iterative pre-order DFS assigning tin/tout in child-list order.
	tin := make([]int32, m)
	tout := make([]int32, m)
	type frame struct {
		node int32
		idx  int
	}
	var counter int32
	stack := []frame{{node: root}}
	order := make([]int32, 0, m)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.idx == 0 {
			tin[f.node] = counter
			counter++
			order = append(order, f.node)
		}
		if ks := children(f.node); f.idx < len(ks) {
			c := ks[f.idx]
			f.idx++
			stack = append(stack, frame{node: c})
			continue
		}
		tout[f.node] = counter - 1
		stack = stack[:len(stack)-1]
	}
	if int(counter) != m {
		return fmt.Errorf("tree: DFS visited %d of %d members", counter, m)
	}

	// A subtree's size is the width of its DFS interval; the heavy child
	// is the largest, ties by node id.
	heavy := make([]int32, m)
	for i := range t.Members {
		var h, hs int32 = -1, -1
		for _, c := range children(int32(i)) {
			if size := tout[c] - tin[c]; size > hs { // equal sizes keep the lower id: children ascend
				h, hs = c, size
			}
		}
		heavy[i] = h
		st := State{Tin: tin[i], Tout: tout[i], HeavyPort: -1}
		if h >= 0 {
			port, ok := g.PortTo(t.Members[i], t.Members[h])
			if !ok {
				return fmt.Errorf("tree: missing edge (%d,%d) for out-tree", t.Members[i], t.Members[h])
			}
			st.HeavyPort = port
			st.HeavyTin = tin[h]
			st.HeavyTout = tout[h]
		}
		t.states[i] = st
	}

	// Labels: walk each root-to-node path once in DFS order, carrying the
	// light-hop prefix (a heavy child shares its parent's slice).
	for _, i := range order {
		t.labels[i].Tin = tin[i]
		if i == root {
			continue
		}
		p := par[i]
		pp := t.labels[p].Light
		if heavy[p] == i {
			t.labels[i].Light = pp
			continue
		}
		port, ok := g.PortTo(t.Members[p], t.Members[i])
		if !ok {
			return fmt.Errorf("tree: missing edge (%d,%d) for light hop", t.Members[p], t.Members[i])
		}
		hops := make([]LightHop, len(pp), len(pp)+1)
		copy(hops, pp)
		t.labels[i].Light = append(hops, LightHop{BranchTin: tin[p], Port: port})
	}
	return nil
}

func sortNodeIDs(s []graph.NodeID) {
	// Insertion sort is fine for the small member slices used in tests;
	// larger callers pass pre-sorted slices. Use a simple shell sort to
	// stay dependable on big inputs too.
	for gap := len(s) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(s); i++ {
			for j := i; j >= gap && s[j] < s[j-gap]; j -= gap {
				s[j], s[j-gap] = s[j-gap], s[j]
			}
		}
	}
}

// Slot returns v's position in Members, or -1 when v is not a member.
// The At accessors below take a slot and skip the index probe, for
// callers that walk Members or look a node up once for several reads.
func (t *Tree) Slot(v graph.NodeID) int { return t.index.Pos(v) }

// LabelAt returns the out-tree address of the member at slot i.
func (t *Tree) LabelAt(i int) Label { return t.labels[i] }

// StateAt returns the routing state of the member at slot i.
func (t *Tree) StateAt(i int) State { return t.states[i] }

// InPortAt returns the in-tree port of the member at slot i, 0 at the
// root's slot.
func (t *Tree) InPortAt(i int) graph.PortID { return t.inPort[i] }

// RoundtripAt returns d_C(Root, v) + d_C(v, Root) for the member at
// slot i: its share of a roundtrip relayed through the root.
func (t *Tree) RoundtripAt(i int) graph.Dist { return t.distFrom[i] + t.distTo[i] }

// Contains reports whether v is a member of the tree.
func (t *Tree) Contains(v graph.NodeID) bool { return t.index.Pos(v) >= 0 }

// State returns v's per-tree routing state.
func (t *Tree) State(v graph.NodeID) (State, bool) {
	i := t.index.Pos(v)
	if i < 0 {
		return State{}, false
	}
	return t.states[i], true
}

// LabelOf returns v's address within the out-tree.
func (t *Tree) LabelOf(v graph.NodeID) (Label, bool) {
	i := t.index.Pos(v)
	if i < 0 {
		return Label{}, false
	}
	return t.labels[i], true
}

// InPort returns the port of v's next hop toward the root on the in-tree
// (undefined for the root itself).
func (t *Tree) InPort(v graph.NodeID) (graph.PortID, bool) {
	i := t.index.Pos(v)
	if i < 0 || v == t.Root {
		return 0, false
	}
	return t.inPort[i], true
}

// DistFrom returns d_C(Root, v) within the member-induced subgraph.
func (t *Tree) DistFrom(v graph.NodeID) (graph.Dist, bool) {
	i := t.index.Pos(v)
	if i < 0 {
		return 0, false
	}
	return t.distFrom[i], true
}

// DistTo returns d_C(v, Root) within the member-induced subgraph.
func (t *Tree) DistTo(v graph.NodeID) (graph.Dist, bool) {
	i := t.index.Pos(v)
	if i < 0 {
		return 0, false
	}
	return t.distTo[i], true
}

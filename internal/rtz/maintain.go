package rtz

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"rtroute/internal/graph"
	"rtroute/internal/parallel"
	"rtroute/internal/tree"
)

// Maintainer keeps a stretch-3 scheme consistent with a mutating
// graph by delta-rebuilding exactly the state a batch of edge events can
// touch, instead of reconstructing the whole substrate. It retains the
// construction intermediates a from-scratch build throws away — the
// per-center double-trees (which also serve as per-center distance rows),
// the center radii r(v, A), and the per-destination cluster member lists —
// and guarantees that the scheme Apply returns is identical, entry for
// entry, to what New would build on the mutated graph with the same
// centers. Those intermediates are the maintainer's own and mutable; the
// schemes it publishes are not: Apply copies what it changes, shares
// every table it does not, and never writes a scheme it has returned.
//
// The dirty contract: Apply(dirty) is correct whenever dirty is a
// superset of the may-use affected sets of the events since the last
// Apply — every node x whose outgoing shortest-path distances could have
// changed (or gained/lost a tie) and every node y whose incoming ones
// could have. churn.Prober computes exactly that set per event.
// Per-scheme dirty derivation from that one node set:
//
//   - center trees: center w's out-tree can change only if d(w, ·)
//     changed somewhere (w in the source-affected set) and its in-tree
//     only if d(·, w) changed (w destination-affected) — so only trees of
//     centers IN dirty are rebuilt (full double-tree rebuild, giving
//     bit-identical DFS intervals to a fresh build);
//   - nearest centers and labels: r(v, w) for every (node, center) pair
//     is re-read from the maintained trees — pure arithmetic, no solver;
//   - clusters: C(y) = {x : r(x,y) < r(y,A)} can change only if y is
//     dirty (membership and parents both need a d(·,y) or radius change),
//     or if r(y,A) itself moved; those destinations are re-solved from
//     the two rows anchored at y — on the lazy oracle resident rows
//     re-derived incrementally, with no search — and stale entries
//     dropped via the member lists.
type Maintainer struct {
	s    *Scheme
	m    graph.DistanceOracle
	pass Pass

	trees        []*tree.Tree
	centerRadius []graph.Dist
	members      [][]graph.NodeID
}

// MaintainReport accounts one Apply: what the delta rebuild actually
// touched, for the churn experiments' delta-cost metrics.
type MaintainReport struct {
	// DirtyNodes is the size of the dirty set handed in — the nodes whose
	// per-node solver state was re-derived.
	DirtyNodes int
	// RebuiltTrees counts center double-trees rebuilt from scratch.
	RebuiltTrees int
	// RebuiltClusters counts destinations whose cluster was re-solved
	// from the two rows anchored at the destination.
	RebuiltClusters int
	// SSSPRuns counts the shortest-path searches the pass ran: two per
	// rebuilt tree plus the oracle's row misses.
	SSSPRuns int
	// RowUpdates counts the lazy oracle's rows the pass re-derived from
	// their resident versions instead of searching (LazyStats.Updates).
	RowUpdates int
	// ChangedLabels lists nodes whose address R3(v) changed — including
	// nodes outside the dirty set whose tree label was renumbered by a
	// center-tree rebuild. Dictionary layers above must rewrite their
	// copies (no solver work).
	ChangedLabels []graph.NodeID
}

// NewMaintained builds the scheme exactly as New does (same rng
// consumption, same centers, same tables) but keeps the construction
// intermediates for incremental maintenance, and runs every later Apply
// under the same pass.
func NewMaintained(g *graph.Graph, m graph.DistanceOracle, rng *rand.Rand, cfg Config, pass Pass) (*Maintainer, error) {
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("rtz: need at least 2 nodes, got %d", n)
	}
	count := int(math.Ceil(math.Sqrt(float64(n) * math.Max(1, math.Log(float64(n))))))
	if count > n {
		count = n
	}
	perm := rng.Perm(n)
	centers := make([]graph.NodeID, count)
	for i := range centers {
		centers[i] = graph.NodeID(perm[i])
	}
	// The empty scheme a build repairs: no center slots, no entries.
	s := &Scheme{Centers: centers, g: g, Tables: make([]*Table, n), Labels: make([]Label, n)}
	for v := range s.Tables {
		s.Tables[v] = &Table{Self: graph.NodeID(v)}
	}
	mt := &Maintainer{
		s: s, m: m, pass: pass,
		trees:        make([]*tree.Tree, count),
		centerRadius: make([]graph.Dist, n),
		members:      make([][]graph.NodeID, n),
	}
	// A build is the repair of everything: every center's tree, every
	// label, every cluster.
	all := make([]graph.NodeID, n)
	for v := range all {
		all[v] = graph.NodeID(v)
	}
	if _, _, err := mt.Apply(all); err != nil {
		return nil, err
	}
	return mt, nil
}

// Scheme returns the scheme the last Apply published.
func (mt *Maintainer) Scheme() *Scheme { return mt.s }

// Apply incorporates a batch of topology mutations whose may-use affected
// set is covered by dirty. The graph must already be mutated; dirty must
// list every node whose anchored distance rows may have changed (both
// directions). It returns a new scheme equal to what New would build
// from scratch on the current graph; the previous one is left as it was.
// The new scheme shares every table the batch did not touch. Each of the
// three steps runs on the pass's pool and costs one forward and one
// reverse shortest-path search per rebuilt tree and per re-solved
// destination, nothing else.
func (mt *Maintainer) Apply(dirty []graph.NodeID) (*Scheme, MaintainReport, error) {
	old := mt.s
	s := &Scheme{Centers: old.Centers, Tables: slices.Clone(old.Tables), Labels: slices.Clone(old.Labels), g: old.g}
	n := s.g.N()
	rep := MaintainReport{DirtyNodes: len(dirty)}
	rows := graph.RowStats(mt.m)
	inDirty := make([]bool, n)
	for _, v := range dirty {
		inDirty[v] = true
	}

	// 1. Rebuild the double-trees of dirty centers (full rebuilds, giving
	// bit-identical DFS intervals to a fresh build) and write every
	// node's slots for them: distinct centers write distinct slots. Every
	// node holds a slot per center, so each gets its own copy of both
	// slot arrays first, in node order.
	var cis []int
	for ci, w := range s.Centers {
		if inDirty[w] {
			cis = append(cis, ci)
		}
	}
	if len(cis) > 0 {
		for v, t := range s.Tables {
			c := *t
			c.InPorts = make([]graph.PortID, len(s.Centers))
			c.TreeStates = make([]tree.State, len(s.Centers))
			copy(c.InPorts, t.InPorts)
			copy(c.TreeStates, t.TreeStates)
			s.Tables[v] = &c
		}
	}
	err := parallel.ForEach(len(cis), mt.pass.Workers, func(i int) error {
		ci := cis[i]
		w := s.Centers[ci]
		t, err := tree.BuildDouble(s.g, w, nil)
		if err != nil {
			return fmt.Errorf("rtz: center %d: %w", w, err)
		}
		mt.trees[ci] = t
		for v := 0; v < n; v++ {
			st, _ := t.State(graph.NodeID(v))
			s.Tables[v].TreeStates[ci] = st
			if graph.NodeID(v) != w {
				p, ok := t.InPort(graph.NodeID(v))
				if !ok {
					return fmt.Errorf("rtz: node %d missing in-port toward center %d", v, w)
				}
				s.Tables[v].InPorts[ci] = p
			}
		}
		return nil
	})
	if err != nil {
		return nil, rep, err
	}
	rep.RebuiltTrees = len(cis)

	// 2. Re-derive nearest centers, radii and labels for every node from
	// the trees: r(v, w) = d(v,w) + d(w,v) is two reads per (node, center)
	// pair, ties to the smaller center id. Pure arithmetic — the trees
	// are the centers' distance rows, so no oracle row is touched.
	radius := make([]graph.Dist, n)
	changed := make([]bool, n)
	_ = parallel.ForEach(n, mt.pass.Workers, func(v int) error { // never fails
		best, bestIdx := graph.Inf, -1
		for ci, w := range s.Centers {
			df, _ := mt.trees[ci].DistFrom(graph.NodeID(v)) // d(w, v)
			dt, _ := mt.trees[ci].DistTo(graph.NodeID(v))   // d(v, w)
			r := dt + df
			if r < best || (r == best && bestIdx >= 0 && w < s.Centers[bestIdx]) {
				best, bestIdx = r, ci
			}
		}
		radius[v] = best
		lbl, _ := mt.trees[bestIdx].LabelOf(graph.NodeID(v))
		nl := Label{
			Node:      graph.NodeID(v),
			CenterIdx: int32(bestIdx),
			Center:    s.Centers[bestIdx],
			TreeLabel: lbl,
		}
		if !s.Labels[v].Equal(nl) {
			changed[v] = true
			s.Labels[v] = nl
		}
		return nil
	})
	for v, c := range changed {
		if c {
			rep.ChangedLabels = append(rep.ChangedLabels, graph.NodeID(v))
		}
	}

	// 3. Re-solve the clusters that can have changed: C(y) = {x : r(x,y) <
	// r(y,A)} moves only if y is dirty (membership and first hops both
	// need a d(·,y) or d(y,·) change) or r(y,A) itself moved.
	var ys []graph.NodeID
	for y := 0; y < n; y++ {
		if inDirty[y] || radius[y] != mt.centerRadius[y] {
			ys = append(ys, graph.NodeID(y))
		}
	}
	mt.centerRadius = radius
	if err := mt.solveClusters(s, ys); err != nil {
		return nil, rep, err
	}
	rep.RebuiltClusters = len(ys)
	after := graph.RowStats(mt.m)
	rep.SSSPRuns = 2*len(cis) + int(after.Misses-rows.Misses)
	rep.RowUpdates = int(after.Updates - rows.Updates)
	mt.s = s
	return s, rep, nil
}

// directEntry is one stored first hop: toward dst, leave on port.
type directEntry struct {
	dst  graph.NodeID
	port graph.PortID
}

// solveClusters replaces the direct entries of the listed destinations
// in s: for each y, every x with r(x,y) < r(y,A) stores the first hop of
// a shortest x->y path. Destinations are solved on the pool, each from
// the two rows anchored at it. Every node that held or gains an entry
// for one of them then gets a new table, compiled in node order from
// its old entries for the other destinations followed by the new ones
// in destination order. A member's first hop toward y comes from the
// reverse row by the search's tie rule (graph.NextHop).
func (mt *Maintainer) solveClusters(s *Scheme, ys []graph.NodeID) error {
	g := s.g
	type solved struct {
		members []graph.NodeID
		ports   []graph.PortID
	}
	res := make([]solved, len(ys))
	err := parallel.ForEach(len(ys), mt.pass.Workers, func(i int) error {
		y := ys[i]
		fromY := mt.m.FromSource(y) // d(y, ·)
		toY := mt.m.ToSink(y)       // d(·, y)
		if mt.pass.Visit != nil {
			mt.pass.Visit(y, fromY, toY)
		}
		radius := mt.centerRadius[y]
		var members []graph.NodeID
		for x := range fromY {
			if graph.NodeID(x) != y && graph.RFromRows(fromY, toY, graph.NodeID(x)) < radius {
				members = append(members, graph.NodeID(x))
			}
		}
		ports := make([]graph.PortID, len(members))
		for j, x := range members {
			next := graph.NextHop(g, toY, x)
			port, ok := g.PortTo(x, next)
			if !ok {
				return fmt.Errorf("rtz: missing edge (%d,%d) for direct entry", x, next)
			}
			ports[j] = port
		}
		res[i] = solved{members, ports}
		return nil
	})
	if err != nil {
		return err
	}
	n := g.N()
	resolved, touched := make([]bool, n), make([]bool, n)
	adds := make([][]directEntry, n)
	for i, y := range ys {
		resolved[y] = true
		for _, x := range mt.members[y] {
			touched[x] = true
		}
		for j, x := range res[i].members {
			touched[x] = true
			adds[x] = append(adds[x], directEntry{y, res[i].ports[j]})
		}
		mt.members[y] = res[i].members
	}
	for x, t := range s.Tables {
		if touched[x] {
			s.Tables[x] = t.recompiled(func(y graph.NodeID) bool { return resolved[y] }, adds[x])
		}
	}
	return nil
}

// recompiled returns a copy of t whose direct entries are t's own for
// every destination drop refuses, followed by adds: a repair's new table
// for a node whose entries moved.
func (t *Table) recompiled(drop func(y graph.NodeID) bool, adds []directEntry) *Table {
	es := make([]directEntry, 0, t.direct.Len()+len(adds))
	t.direct.Range(func(y graph.NodeID, p graph.PortID) {
		if !drop(y) {
			es = append(es, directEntry{y, p})
		}
	})
	es = append(es, adds...)
	c := *t
	c.CompileDirect(len(es), func(i int) graph.NodeID { return es[i].dst }, func(i int) graph.PortID { return es[i].port })
	return &c
}

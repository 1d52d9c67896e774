package churn

import (
	"fmt"

	"rtroute/internal/graph"
)

// This file is the affected-set probe. Reweighting edge (u, v) from
// wOld to wNew, the may-use affected set is every node whose
// shortest-path distance rows — in either direction, counting ties —
// can differ between the old and new graph: x is source-affected iff
// some shortest path from x to v uses (or newly ties with) the edge,
// which on either graph is the equality d(x,v) = d(x,u) + w, and y is
// destination-affected symmetrically via d(u,y) = w + d(v,y). Checking
// the equalities on both the pre- and post-mutation graph captures
// destroyed ties (weight increases) and created ties (decreases). Nodes
// outside the set keep bit-identical Dijkstra outcomes — distances and
// deterministic parent choices — in every solver the schemes run.
//
// Evaluating the two equalities directly takes the four rows anchored
// at u and v per configuration, eight Dijkstras in all (the test
// oracle in probe_test.go does exactly that). The probe evaluates each
// equality set without the second row of its pair:
//
//   - The source set is exactly the backward closure of u under tight
//     in-edges of the single row t(x) = d(x,v): u belongs iff
//     t(u) = w, and y joins iff it has an out-edge (y, x) to a member x
//     with t(y) = w(y,x) + t(x). (⊇: walk a shortest x→v path ending
//     with the edge — every suffix is shortest, so every hop is tight
//     and every node on it satisfies the equality. ⊆: membership gives
//     d(y,u)+w ≤ w(y,x)+d(x,u)+w = t(y) ≤ d(y,u)+w, so equality.)
//   - The destination set is symmetrically the forward closure of v
//     under tight out-edges of the row f(y) = d(u,y).
//
// So each configuration costs one forward Dijkstra from u, one reverse
// Dijkstra from v, and two closure walks that touch only affected
// nodes and their incident edges — the walk stops at the first
// frontier node that breaks the tightness equality. Old plus new
// configuration: 4 full Dijkstras instead of 8, and the closure cost
// is proportional to the affected set, near zero in the common case
// where neither endpoint test fires. The result is the equality sets
// node for node — the superset property the maintainers need holds as
// equality.

// Prober computes affected sets with reusable scratch: two
// Dijkstra scratches (the forward and reverse rows of one
// configuration are alive simultaneously), a stamp array for closure
// membership, and the work queue.
type Prober struct {
	fwd, rev *graph.SSSPScratch
	// mark accumulates the union of the four closures per probe; seen
	// is the per-closure traversal stamp (the closures overlap, so a
	// node found by one must not stop another's walk short).
	mark      []uint32
	epoch     uint32
	seen      []uint32
	seenEpoch uint32
	queue     []graph.NodeID
	dirty     []graph.NodeID
}

// NewProber returns a prober sized lazily to the graphs it probes.
func NewProber() *Prober { return &Prober{} }

// Affected mutates edge (u, v) of g to weight wNew and returns the
// sorted may-use affected node set. The returned slice is owned by the
// caller; the prober's scratch is reused across calls. The edge must
// exist and wNew lie in [1, DownWeight] (Overlay.mutate checks both).
func (p *Prober) Affected(g *graph.Graph, u, v graph.NodeID, wNew graph.Dist) []graph.NodeID {
	n := g.N()
	if p.fwd == nil {
		p.fwd = graph.NewSSSPScratch(n)
		p.rev = graph.NewSSSPScratch(n)
	}
	if len(p.mark) < n {
		p.mark = make([]uint32, n)
		p.seen = make([]uint32, n)
		p.epoch, p.seenEpoch = 0, 0
	}
	p.epoch++
	if p.epoch == 0 { // wrapped: stamps ambiguous, clear
		clear(p.mark)
		p.epoch = 1
	}
	wOld, ok := g.EdgeWeight(u, v)
	if !ok {
		panic(fmt.Sprintf("churn: no edge (%d,%d) to probe", u, v))
	}
	p.closures(g, u, v, wOld)
	if err := g.SetEdgeWeight(u, v, wNew); err != nil {
		panic(fmt.Sprintf("churn: reweight (%d,%d): %v", u, v, err))
	}
	p.closures(g, u, v, wNew)

	p.dirty = p.dirty[:0]
	for i := 0; i < n; i++ {
		if p.mark[i] == p.epoch {
			p.dirty = append(p.dirty, graph.NodeID(i))
		}
	}
	return append([]graph.NodeID(nil), p.dirty...)
}

// closures marks the source and destination equality sets of the
// current graph configuration with weight w on (u, v).
func (p *Prober) closures(g *graph.Graph, u, v graph.NodeID, w graph.Dist) {
	// Source side: backward closure of u under in-edges tight w.r.t.
	// t(x) = d(x, v).
	t := p.rev.DijkstraRev(g, v).Dist
	if t[u] == w {
		p.begin()
		p.visit(u)
		for len(p.queue) > 0 {
			x := p.queue[len(p.queue)-1]
			p.queue = p.queue[:len(p.queue)-1]
			for _, e := range g.In(x) {
				if y := e.From; p.seen[y] != p.seenEpoch && t[y] == e.Weight+t[x] {
					p.visit(y)
				}
			}
		}
	}
	// Destination side: forward closure of v under out-edges tight
	// w.r.t. f(y) = d(u, y).
	f := p.fwd.Dijkstra(g, u).Dist
	if f[v] == w {
		p.begin()
		p.visit(v)
		for len(p.queue) > 0 {
			x := p.queue[len(p.queue)-1]
			p.queue = p.queue[:len(p.queue)-1]
			for _, e := range g.Out(x) {
				if z := e.To; p.seen[z] != p.seenEpoch && f[z] == f[x]+e.Weight {
					p.visit(z)
				}
			}
		}
	}
}

// begin opens one closure walk: fresh traversal stamp, empty queue.
func (p *Prober) begin() {
	p.seenEpoch++
	if p.seenEpoch == 0 { // wrapped: stamps ambiguous, clear
		clear(p.seen)
		p.seenEpoch = 1
	}
	p.queue = p.queue[:0]
}

// visit adds a node to the closure in progress and the probe's union.
func (p *Prober) visit(x graph.NodeID) {
	p.seen[x] = p.seenEpoch
	p.mark[x] = p.epoch
	p.queue = append(p.queue, x)
}

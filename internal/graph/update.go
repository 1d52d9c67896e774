package graph

import "slices"

// This file re-derives a shortest-path row from its version under the
// previous weights, Ramalingam–Reps style, instead of searching again;
// the result is the row, parents included, a fresh Dijkstra or
// DijkstraRev returns. A row is the fixpoint d(x) = min over x's
// dependency arcs (x, y, w) of w + d(y), d(root) = 0: a reverse row
// depends on out-edges and propagates along in-edges, a forward row the
// mirror image. Increases first: a node is affected when no dependency
// arc reaches an unaffected node at its old distance, decided in
// old-distance order from the tails of increased tight arcs. Then one
// Dijkstra re-settles the affected set from its boundary and the tails
// of decreased arcs. Parents follow the tie rule (tieParent) wherever a
// distance or an incident arc moved. The update is exact for rows whose
// distances stay below DownWeight before and after — shortest paths
// avoid down edges, as on a graph the churn overlay keeps strongly
// connected over its live edges; any other row reports !ok.

// arc is an edge as one row direction reads it: the end the row value
// depends on (or propagates to) and the weight.
type arc interface {
	Edge | InEdge
	end() NodeID
	weight() Dist
}

func (e Edge) end() NodeID    { return e.To }
func (e Edge) weight() Dist   { return e.Weight }
func (e InEdge) end() NodeID  { return e.From }
func (e InEdge) weight() Dist { return e.Weight }

// updateRow re-derives a row after changes — a reverse row (DijkstraRev's)
// when reverse is set, else a forward one — from old, its version before
// them; oldParent is the old row's parents, or nil for a row that keeps
// none. The returned slices are fresh copies unless no change touches
// the row, in which case old and oldParent come back as they are.
// Neither input is written. ok is false for a row the update does not
// cover (see above).
func (s *SSSPScratch) updateRow(g *Graph, reverse bool, old []Dist, oldParent []NodeID, changes []weightChange) (dist []Dist, parent []NodeID, ok bool) {
	if reverse {
		return updateRow(s, g.Out, g.In, old, oldParent, changes, func(c weightChange) (NodeID, NodeID) { return c.from, c.to })
	}
	return updateRow(s, g.In, g.Out, old, oldParent, changes, func(c weightChange) (NodeID, NodeID) { return c.to, c.from })
}

// updateRow is the kernel behind SSSPScratch.updateRow: deps(x) are the
// arcs d(x) is a minimum over, dependents(y) the arcs y's value
// propagates along, and ends orients a changed edge as (tail x, end y)
// of x's dependency arc.
func updateRow[D, P arc](s *SSSPScratch, deps func(NodeID) []D, dependents func(NodeID) []P,
	old []Dist, oldParent []NodeID, changes []weightChange, ends func(weightChange) (NodeID, NodeID)) ([]Dist, []NodeID, bool) {
	if slices.Max(old) >= DownWeight {
		return nil, nil, false
	}
	touched := false
	for _, c := range changes {
		x, y := ends(c)
		if c.new > c.old && old[x] == c.old+old[y] || c.new < c.old && c.new+old[y] <= old[x] {
			touched = true
			break
		}
	}
	if !touched {
		return old, oldParent, true
	}
	n := len(old)
	s.ensure(n)
	dist := append([]Dist(nil), old...)

	// 1. The affected set, decided in old-distance order. Membership is
	// dist[x] = Inf, which no node of a covered row has.
	s.begin()
	for _, c := range changes {
		if x, y := ends(c); c.new > c.old && old[x] == c.old+old[y] && s.stamp[x] != s.epoch {
			s.stamp[x] = s.epoch
			s.push(x, old[x])
		}
	}
	// A queued node still holds its old distance in dist, the key it was
	// pushed at, so no entry here is stale.
	s.moved = s.moved[:0]
	for top, ok := s.pop(dist); ok; top, ok = s.pop(dist) {
		x := top.node
		supported := false
		for _, e := range deps(x) {
			if y := e.end(); dist[y] < Inf && e.weight()+dist[y] <= old[x] {
				supported = true
				break
			}
		}
		if supported {
			continue
		}
		dist[x] = Inf
		s.moved = append(s.moved, x)
		// Every dependent that could have leaned on x. With current
		// weights, >= covers the old tight arcs (an unchanged or increased
		// arc can only tie; a decreased one passes strictly).
		for _, e := range dependents(x) {
			if z := e.end(); s.stamp[z] != s.epoch && old[z] >= e.weight()+old[x] {
				s.stamp[z] = s.epoch
				s.push(z, old[z])
			}
		}
	}

	// 2. Re-settle: affected nodes from their best arc out of the
	// affected set, tails of decreased arcs from the new weight, then a
	// Dijkstra from those seeds.
	s.begin()
	offer := func(v NodeID, d Dist) {
		if d < dist[v] {
			dist[v] = d
			s.push(v, d)
		}
	}
	for _, x := range s.moved {
		best := Inf
		for _, e := range deps(x) {
			if y := e.end(); dist[y] < Inf {
				best = min(best, e.weight()+dist[y])
			}
		}
		offer(x, best)
	}
	for _, c := range changes {
		if x, y := ends(c); c.new < c.old && dist[y] < Inf {
			offer(x, c.new+dist[y])
		}
	}
	// Every node whose distance moves is popped below, the affected ones
	// included.
	s.moved = s.moved[:0]
	for top, ok := s.pop(dist); ok; top, ok = s.pop(dist) {
		if top.dist >= DownWeight {
			return nil, nil, false
		}
		s.moved = append(s.moved, top.node)
		for _, e := range dependents(top.node) {
			offer(e.end(), top.dist+e.weight())
		}
	}
	if oldParent == nil {
		return dist, nil, true
	}

	// 3. Parents by the tie rule, wherever an input to it moved.
	parent := append([]NodeID(nil), oldParent...)
	s.begin()
	fix := func(v NodeID) {
		if s.stamp[v] == s.epoch {
			return
		}
		s.stamp[v] = s.epoch
		parent[v] = tieParent(deps(v), dist, v)
	}
	for _, c := range changes {
		x, _ := ends(c)
		fix(x)
	}
	for _, v := range s.moved {
		if dist[v] == old[v] {
			continue
		}
		fix(v)
		for _, e := range dependents(v) {
			fix(e.end())
		}
	}
	return dist, parent, true
}

// tieParent is the parent a Dijkstra run assigns v: the end u of a tight
// dependency arc minimizing (dist[u], u), or -1 at the root.
func tieParent[D arc](deps []D, dist []Dist, v NodeID) NodeID {
	best := NodeID(-1)
	if dist[v] == 0 {
		return best
	}
	for _, e := range deps {
		u := e.end()
		if e.weight()+dist[u] == dist[v] && (best < 0 || dist[u] < dist[best] || dist[u] == dist[best] && u < best) {
			best = u
		}
	}
	return best
}

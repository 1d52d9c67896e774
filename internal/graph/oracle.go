package graph

// DistanceOracle abstracts how schemes obtain shortest-path distances.
// LazyOracle is its implementation: forward/reverse single-source rows
// held in a bounded, concurrency-safe LRU, all 2n of them computed up
// front by AllPairs while they fit the default budget.
//
// Row-oriented consumers (Init orders, cluster construction, the
// Theorem 15 reduction) should fetch FromSource/ToSink once per node and
// index the rows, rather than calling R per pair: a row that is not
// resident costs one Dijkstra, while scattered R calls for varying
// sources may thrash the cache.
type DistanceOracle interface {
	// N returns the number of nodes the oracle answers for.
	N() int
	// R returns the roundtrip distance r(u,v) = d(u,v) + d(v,u), Inf if
	// either direction is unreachable.
	R(u, v NodeID) Dist
	// FromSource returns the row d(u, ·). Callers must not modify it.
	FromSource(u NodeID) []Dist
	// ToSink returns the column d(·, v). Callers must not modify it.
	ToSink(v NodeID) []Dist
}

var _ DistanceOracle = (*LazyOracle)(nil)

// RFromRows combines the two rows anchored at one node into the
// roundtrip distance r(anchor, u): Inf if either direction is
// unreachable. fwd must be FromSource(anchor) and rev ToSink(anchor) (or
// the transposed pair for a destination anchor — the sum is symmetric).
func RFromRows(fwd, rev []Dist, u NodeID) Dist {
	if fwd[u] >= Inf || rev[u] >= Inf {
		return Inf
	}
	return fwd[u] + rev[u]
}

// NextHop returns x's next hop toward y, given toY = ToSink(y): the
// out-neighbor DijkstraRev(g, y) would make x's parent, by the same tie
// rule, or -1 at y and at a node that cannot reach it. A caller that
// needs first hops toward y for a few nodes (the stretch-3 clusters)
// derives them from the row it already holds, so no row keeps n of
// them.
func NextHop(g *Graph, toY []Dist, x NodeID) NodeID { return tieParent(g.Out(x), toY, x) }

// RTDiamOf returns the roundtrip diameter max_{u,v} r(u,v) of any oracle
// from the 2n rows anchored at its nodes.
func RTDiamOf(o DistanceOracle) Dist {
	n := o.N()
	var diam Dist
	for u := 0; u < n; u++ {
		fwd, rev := o.FromSource(NodeID(u)), o.ToSink(NodeID(u))
		for v := u + 1; v < n; v++ {
			r := RFromRows(fwd, rev, NodeID(v))
			if r >= Inf {
				return Inf
			}
			if r > diam {
				diam = r
			}
		}
	}
	return diam
}

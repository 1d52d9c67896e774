package graph

import (
	"math"
	"math/bits"
	"sync"
)

// SSSP holds the result of a single-source (or single-sink) shortest path
// computation.
type SSSP struct {
	// Dist[v] is the shortest distance from the source to v (forward run)
	// or from v to the sink (reverse run). Inf if unreachable.
	Dist []Dist
	// Parent[v] is the predecessor of v on a shortest path in the
	// traversal tree, or -1 for the root / unreachable nodes. For a
	// forward run Parent[v] is the node before v on a shortest
	// source->v path; for a reverse run it is the node after v on a
	// shortest v->sink path (v's next hop toward the sink).
	Parent []NodeID
}

// heapNode is one entry of the scratch's priority queue: a plain
// (dist, node) pair, never boxed through an interface.
type heapNode struct {
	dist Dist
	node NodeID
}

// SSSPScratch is the reusable state of the Dijkstra core: distance,
// parent and epoch arrays plus a monotone radix heap, all reused across
// runs so a steady-state shortest-path computation allocates nothing.
//
// Re-initialization is O(touched), not O(n): every per-node array is
// guarded by an epoch stamp, so starting a new run is one counter
// increment and entries are lazily initialized the first time the run
// touches their node. Between runs every dist and parent entry but the
// last run's reached ones reads Inf and -1, so a run resets only those
// and its rows come out complete: a search restricted to a small member
// set costs what it reaches, not n.
//
// The heap relies on Dijkstra's pops never decreasing: an entry sits in
// bucket bits.Len64(d ^ last), where last is the latest key popped, so
// bucket 0 holds keys equal to last and bucket i keys that first differ
// from it at bit i-1. A lower distance is pushed again rather than
// decreased, and a pop skips an entry whose key is no longer its node's
// distance: a node is queued again only at a strictly lower distance, so
// at most one of its entries is live. A run holds at most m+1 entries
// and the buckets keep their capacity. Ties pop in no particular order,
// so relax applies the tie rule (tieParent) itself.
//
// The SSSP values returned by the scratch's methods alias the scratch's
// own buffers: they are valid until the next run on the same scratch and
// must be treated as read-only. Callers that need the rows to outlive the
// scratch copy them. A scratch is not safe for concurrent use; use one
// per goroutine or the package-level pool.
//
// The zero value is a valid empty scratch; buffers grow on first use.
type SSSPScratch struct {
	dist    []Dist
	parent  []NodeID
	stamp   []uint32
	epoch   uint32
	buckets [64][]heapNode
	last    Dist     // the heap's latest popped key
	reached []NodeID // the nodes whose dist and parent the last run wrote
	moved   []NodeID // a row update's affected, then settled, nodes
}

// NewSSSPScratch returns a scratch pre-sized for n-node graphs.
func NewSSSPScratch(n int) *SSSPScratch {
	s := &SSSPScratch{}
	s.ensure(n)
	return s
}

// ensure grows the per-node arrays to cover n nodes.
func (s *SSSPScratch) ensure(n int) {
	if len(s.dist) >= n {
		return
	}
	s.dist = make([]Dist, n)
	s.parent = make([]NodeID, n)
	for v := range s.dist {
		s.dist[v], s.parent[v] = Inf, -1
	}
	s.stamp = make([]uint32, n) // zeroed: nothing is stamped for any epoch >= 1
	s.epoch = 0
	s.reached = s.reached[:0]
}

// begin opens a new run: bump the epoch (un-stamping every node in O(1))
// and empty the heap. Epoch 0 is never used as a live epoch so that
// freshly zeroed stamp arrays mean "untouched".
func (s *SSSPScratch) begin() {
	s.epoch++
	if s.epoch == 0 { // wrapped after 2^32 runs: stamps are ambiguous, clear them
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
	for i := range s.buckets {
		s.buckets[i] = s.buckets[i][:0]
	}
	s.last = 0
}

// push queues node at key d, which must not be below the last key popped.
func (s *SSSPScratch) push(node NodeID, d Dist) {
	b := bits.Len64(uint64(d ^ s.last))
	s.buckets[b] = append(s.buckets[b], heapNode{dist: d, node: node})
}

// pop removes and returns an entry of least key whose key is still its
// node's distance in dist, dropping stale ones; ok is false once the heap
// is empty.
func (s *SSSPScratch) pop(dist []Dist) (top heapNode, ok bool) {
	for {
		if b := s.buckets[0]; len(b) > 0 {
			top = b[len(b)-1]
			s.buckets[0] = b[:len(b)-1]
			if top.dist == dist[top.node] {
				return top, true
			}
			continue
		}
		if !s.refill(dist) {
			return heapNode{}, false
		}
	}
}

// refill empties the lowest nonempty bucket: its least live key becomes
// last, and every live entry moves to a lower bucket (all of them agree
// with that key on bit i-1 and above). Stale entries are dropped.
func (s *SSSPScratch) refill(dist []Dist) bool {
	for i := 1; i < len(s.buckets); i++ {
		b := s.buckets[i]
		if len(b) == 0 {
			continue
		}
		live, least := b[:0], Dist(math.MaxInt64) // keys may pass Inf over DownWeight arcs
		for _, e := range b {
			if e.dist == dist[e.node] {
				live = append(live, e)
				least = min(least, e.dist)
			}
		}
		s.buckets[i] = b[:0]
		if len(live) == 0 {
			continue
		}
		s.last = least
		for _, e := range live {
			j := bits.Len64(uint64(e.dist ^ least))
			s.buckets[j] = append(s.buckets[j], e)
		}
		return true
	}
	return false
}

// relax offers v, first reached or reached no later, the distance nd
// via u, a node just popped. A tie moves v's parent to u when u is less in
// (distance, id) order: pops never decrease, so dist[u] >=
// dist[parent[v]] always and only the id can decide. That keeps the
// parent tieParent names.
func (s *SSSPScratch) relax(v NodeID, nd Dist, u NodeID) {
	if s.stamp[v] != s.epoch {
		s.stamp[v] = s.epoch
		s.reached = append(s.reached, v)
	} else if nd == s.dist[v] {
		if p := s.parent[v]; u < p && s.dist[u] == s.dist[p] {
			s.parent[v] = u
		}
		return
	}
	s.dist[v] = nd
	s.parent[v] = u
	s.push(v, nd)
}

// Dijkstra computes shortest distances from src over out-edges, reusing
// the scratch's buffers: zero allocations in steady state. The returned
// slices alias the scratch and are valid until its next run.
func (s *SSSPScratch) Dijkstra(g *Graph, src NodeID) SSSP {
	return s.run(g, src, false, nil)
}

// DijkstraRev computes, for every node v, the shortest distance from v TO
// sink, running over in-edges; Parent[v] is v's next hop toward the sink.
// Same reuse contract as Dijkstra.
func (s *SSSPScratch) DijkstraRev(g *Graph, sink NodeID) SSSP {
	return s.run(g, sink, true, nil)
}

// DijkstraRestricted is Dijkstra over the subgraph induced by the nodes
// with inSet[v] true (the root is always traversed). Nodes outside the
// set report Inf / -1.
func (s *SSSPScratch) DijkstraRestricted(g *Graph, src NodeID, inSet []bool) SSSP {
	return s.run(g, src, false, inSet)
}

// DijkstraRevRestricted is DijkstraRev over the subgraph induced by inSet.
func (s *SSSPScratch) DijkstraRevRestricted(g *Graph, sink NodeID, inSet []bool) SSSP {
	return s.run(g, sink, true, inSet)
}

// run is the single Dijkstra loop behind every variant. When the graph is
// sealed it walks the flat CSR arrays directly (one index load for the
// whole run instead of one per pop); otherwise it uses the per-node build
// slices.
func (s *SSSPScratch) run(g *Graph, root NodeID, reverse bool, inSet []bool) SSSP {
	n := g.N()
	s.ensure(n)
	s.begin()
	for _, v := range s.reached {
		s.dist[v], s.parent[v] = Inf, -1
	}
	s.stamp[root] = s.epoch
	s.dist[root] = 0
	s.parent[root] = -1
	s.reached = append(s.reached[:0], root)
	s.push(root, 0)
	idx := g.idx.Load()
	dist, parent, stamp, ep := s.dist[:n], s.parent[:n], s.stamp[:n], s.epoch
	for top, ok := s.pop(dist); ok; top, ok = s.pop(dist) {
		// The loops keep the common case, an arc that does not reach v
		// sooner, inline; relax takes the rest.
		u, du := top.node, top.dist
		if reverse {
			var edges []InEdge
			if idx != nil {
				edges = idx.inEdges[idx.inStart[u]:idx.inStart[u+1]]
			} else {
				edges = g.in[u]
			}
			for _, e := range edges {
				if v, nd := e.From, du+e.Weight; (inSet == nil || inSet[v]) && (stamp[v] != ep || nd <= dist[v]) {
					s.relax(v, nd, u)
				}
			}
		} else {
			var edges []Edge
			if idx != nil {
				edges = idx.outEdges[idx.outStart[u]:idx.outStart[u+1]]
			} else {
				edges = g.out[u]
			}
			for _, e := range edges {
				if v, nd := e.To, du+e.Weight; (inSet == nil || inSet[v]) && (stamp[v] != ep || nd <= dist[v]) {
					s.relax(v, nd, u)
				}
			}
		}
	}
	return SSSP{Dist: dist[:n:n], Parent: parent[:n:n]}
}

// scratchPool recycles scratches for the one-shot package-level entry
// points (Dijkstra, DijkstraRev, the lazy oracle's row fills), so even
// callers without their own scratch pay only for the rows they keep.
var scratchPool = sync.Pool{New: func() any { return &SSSPScratch{} }}

func getScratch() *SSSPScratch  { return scratchPool.Get().(*SSSPScratch) }
func putScratch(s *SSSPScratch) { scratchPool.Put(s) }

// runPooled executes one run on a pooled scratch and copies the result
// rows into caller-owned slices — the shared body of every package-level
// entry point.
func runPooled(run func(*SSSPScratch) SSSP) SSSP {
	s := getScratch()
	r := run(s)
	out := SSSP{
		Dist:   append([]Dist(nil), r.Dist...),
		Parent: append([]NodeID(nil), r.Parent...),
	}
	putScratch(s)
	return out
}

// Dijkstra computes shortest distances from src over out-edges. The
// returned slices are freshly allocated and owned by the caller; use an
// SSSPScratch directly for the zero-allocation contract.
func Dijkstra(g *Graph, src NodeID) SSSP {
	return runPooled(func(s *SSSPScratch) SSSP { return s.Dijkstra(g, src) })
}

// DijkstraRev computes, for every node v, the shortest distance from v TO
// sink, by running Dijkstra over in-edges. Parent[v] is v's successor on a
// shortest v->sink path, i.e. the next hop toward the sink. The returned
// slices are owned by the caller.
func DijkstraRev(g *Graph, sink NodeID) SSSP {
	return runPooled(func(s *SSSPScratch) SSSP { return s.DijkstraRev(g, sink) })
}

// DijkstraRestricted is Dijkstra over the subgraph induced by the nodes
// with inSet[v] true (the root is always traversed); nodes outside the
// set report Inf / -1. Pooled scratch, caller-owned result slices.
func DijkstraRestricted(g *Graph, src NodeID, inSet []bool) SSSP {
	return runPooled(func(s *SSSPScratch) SSSP { return s.DijkstraRestricted(g, src, inSet) })
}

// DijkstraRevRestricted is DijkstraRev over the subgraph induced by
// inSet. Pooled scratch, caller-owned result slices.
func DijkstraRevRestricted(g *Graph, sink NodeID, inSet []bool) SSSP {
	return runPooled(func(s *SSSPScratch) SSSP { return s.DijkstraRevRestricted(g, sink, inSet) })
}

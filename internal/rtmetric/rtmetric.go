// Package rtmetric implements the roundtrip-metric machinery of §1.1 and
// §2 of the paper: the total orders Init_v induced by the roundtrip
// distance r(u,v) = d(u,v) + d(v,u) and the neighborhood balls N_i(v)
// (the first n^(i/k) nodes of Init_v).
package rtmetric

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"rtroute/internal/graph"
	"rtroute/internal/parallel"
)

// Space bundles a graph, a distance oracle, and (lazily computed)
// prefixes of the Init_v total orders. The tie-breaking IDs default to
// the topological node indices; in TINN deployments callers may supply
// the node-name permutation instead (the paper's IDu, §2).
//
// A Space keeps, per node, only the prefix of Init_v its readers ask
// for: the first size nodes, size fixed at construction from
// NeighborhoodSizes. Building a prefix touches only the two distance
// rows anchored at v (d(v,·) and d(·,v)) and sorts only the prefix, so
// a Space over n nodes holds n·size node ids, not n² of them.
type Space struct {
	G   *graph.Graph
	M   graph.DistanceOracle
	ids IDs

	size     int              // prefix length kept per node
	prefixes [][]graph.NodeID // lazily filled per source node
}

// New creates a Space over g with a distance oracle m that keeps N_1(v)
// for k = 2, the ⌈√n⌉ nodes the stretch-6 scheme and a k = 2 block
// assignment read. If ids is nil the topological indices are used for
// tie-breaking.
func New(g *graph.Graph, m graph.DistanceOracle, ids []int32) *Space {
	return NewPrefix(g, m, ids, NeighborhoodSizes(g.N(), 2)[1])
}

// NewPrefix is New keeping the first size nodes of each Init_v (clamped
// to [1, n]): NeighborhoodSizes(n, k)[k-1] for a reader of every
// N_i(v), i < k.
func NewPrefix(g *graph.Graph, m graph.DistanceOracle, ids []int32, size int) *Space {
	if m.N() != g.N() {
		panic(fmt.Sprintf("rtmetric: metric over %d nodes, graph has %d", m.N(), g.N()))
	}
	if ids != nil && len(ids) != g.N() {
		panic(fmt.Sprintf("rtmetric: %d ids for %d nodes", len(ids), g.N()))
	}
	if ids == nil {
		ids = make([]int32, g.N())
		for i := range ids {
			ids[i] = int32(i)
		}
	}
	return &Space{
		G:        g,
		M:        m,
		ids:      NewIDs(ids),
		size:     min(max(size, 1), g.N()),
		prefixes: make([][]graph.NodeID, g.N()),
	}
}

// IDs are distinct tie-breaking node ids, with the width Order packs
// them in.
type IDs struct {
	ids []int32
	// bits is the width of the largest id, or -1 when some id is
	// negative (Order then cannot pack its keys).
	bits int
}

// NewIDs prepares ids (one per node, distinct) for Order.
func NewIDs(ids []int32) IDs {
	b := 0
	for _, id := range ids {
		if id < 0 {
			return IDs{ids: ids, bits: -1}
		}
		b = max(b, bits.Len32(uint32(id)))
	}
	return IDs{ids: ids, bits: b}
}

// Order is Init_v's total order read straight off the two distance rows
// anchored at v, fwd = d(v, ·) and rev = d(·, v): by (r(v,u), d(u,v),
// id(u)). When the three fields and the node index fit one uint64 side
// by side — they do unless a distance is astronomically large, as across
// an administratively down edge — each node has one packed key, and
// comparing keys compares the tuples; otherwise the tuples are compared
// field by field. Both give the same order.
type Order struct {
	fwd, rev []graph.Dist
	ids      []int32
	// The packed key's field widths, low to high: node, id, d(u,v), r.
	// idBits < 0: the fields do not fit one word.
	nodeBits, idBits, revBits int
}

// Order returns Init_v's order from v's rows fwd = d(v, ·) and
// rev = d(·, v), in one pass over them.
func (x IDs) Order(fwd, rev []graph.Dist) Order {
	var maxR, maxRev graph.Dist
	for u := range fwd {
		maxR, maxRev = max(maxR, graph.RFromRows(fwd, rev, graph.NodeID(u))), max(maxRev, rev[u])
	}
	o := Order{fwd: fwd, rev: rev, ids: x.ids, nodeBits: bits.Len(uint(len(fwd))), idBits: x.bits, revBits: bits.Len64(uint64(maxRev))}
	if x.bits < 0 || bits.Len64(uint64(maxR))+o.revBits+x.bits+o.nodeBits > 64 {
		o.idBits = -1
	}
	return o
}

// N returns the number of nodes ordered.
func (o *Order) N() int { return len(o.fwd) }

// Packed reports whether Key is defined.
func (o *Order) Packed() bool { return o.idBits >= 0 }

// Key returns u's packed key when Packed: Key(a) < Key(b) exactly when a
// precedes b in Init_v, and the node index is the low nodeBits bits.
func (o *Order) Key(u graph.NodeID) uint64 {
	r := uint64(graph.RFromRows(o.fwd, o.rev, u))
	return ((r<<o.revBits|uint64(o.rev[u]))<<o.idBits|uint64(o.ids[u]))<<o.nodeBits | uint64(u)
}

// Prefix returns the first size nodes of the order (size in [1, n]),
// in a fresh slice. Packed keys for a short prefix go through a bounded
// selection: the size smallest keys so far, kept sorted, which a key
// enters only when it is below the last. A prefix of a quarter of the
// nodes or more, where that selection would shift O(size) words per key,
// sorts all n keys instead. Unpacked, every node is sorted by the
// tuples.
func (o *Order) Prefix(size int) []graph.NodeID {
	out := make([]graph.NodeID, size)
	if !o.Packed() {
		ord := make([]graph.NodeID, len(o.fwd))
		for i := range ord {
			ord[i] = graph.NodeID(i)
		}
		slices.SortFunc(ord, func(a, b graph.NodeID) int {
			return cmp.Or(cmp.Compare(graph.RFromRows(o.fwd, o.rev, a), graph.RFromRows(o.fwd, o.rev, b)),
				cmp.Compare(o.rev[a], o.rev[b]), cmp.Compare(o.ids[a], o.ids[b]))
		})
		copy(out, ord)
		return out
	}
	var keys []uint64
	if n := len(o.fwd); 4*size >= n {
		keys = make([]uint64, n)
		for u := range keys {
			keys[u] = o.Key(graph.NodeID(u))
		}
		slices.Sort(keys)
		keys = keys[:size]
	} else {
		keys = make([]uint64, 0, size)
		for u := range o.fwd {
			key := o.Key(graph.NodeID(u))
			if len(keys) == size {
				if key > keys[size-1] {
					continue
				}
				keys = keys[:size-1]
			}
			i, _ := slices.BinarySearch(keys, key)
			keys = slices.Insert(keys, i, key)
		}
	}
	for i, key := range keys {
		out[i] = graph.NodeID(key & (1<<o.nodeBits - 1))
	}
	return out
}

// Fill caches v's prefix from the two rows anchored at v — fwd = d(v, ·),
// rev = d(·, v) as the Space's oracle would return them — so it costs no
// row fetch of its own. A cached prefix is kept. Like Precompute's
// fills, calls for distinct v may run concurrently.
func (s *Space) Fill(v graph.NodeID, fwd, rev []graph.Dist) {
	if s.prefixes[v] == nil {
		o := s.ids.Order(fwd, rev)
		s.prefixes[v] = o.Prefix(s.size)
	}
}

// Neighborhood returns the first size nodes of Init_v (v itself included,
// as in the paper where Init_v begins with v). size is clamped to [1, n].
// Up to the Space's prefix length the slice is v's cached prefix (filled
// on first use) and must not be modified; a longer one is computed from
// v's rows each call and not kept.
func (s *Space) Neighborhood(v graph.NodeID, size int) []graph.NodeID {
	size = min(max(size, 1), s.G.N())
	if size > s.size {
		o := s.ids.Order(s.M.FromSource(v), s.M.ToSink(v))
		return o.Prefix(size)
	}
	if s.prefixes[v] == nil {
		s.Fill(v, s.M.FromSource(v), s.M.ToSink(v))
	}
	return s.prefixes[v][:size]
}

// Precompute fills the prefix cache for every node that lacks one,
// across a worker pool. The lazy cache is not safe for concurrent fills
// of one node, so scheme builders call Precompute once, before anything
// reads a prefix, and then read them freely. workers <= 0 selects
// GOMAXPROCS.
func (s *Space) Precompute(workers int) {
	// Each index writes only its own v's slot: disjoint.
	_ = parallel.ForEach(s.G.N(), workers, func(v int) error {
		s.Neighborhood(graph.NodeID(v), s.size)
		return nil
	})
}

// InvalidateOrders drops the cached prefixes of the given nodes so they
// are recomputed — against the oracle's current rows — on next access.
// The incremental maintainers call this with the churn dirty set: a node
// outside the may-use affected set of a topology event has bit-identical
// distance rows in both directions, hence a bit-identical Init order, so
// its cache entry stays valid across the mutation.
func (s *Space) InvalidateOrders(nodes []graph.NodeID) {
	for _, v := range nodes {
		s.prefixes[v] = nil
	}
}

// NeighborhoodSizes returns the sizes |N_i(v)| = ceil(n^(i/k)) for
// i = 0..k, clamped to n. The paper assumes n is a perfect k-th power;
// ceiling sizes preserve every containment the proofs use
// (N_0 ⊆ N_1 ⊆ ... ⊆ N_k = V) for arbitrary n.
func NeighborhoodSizes(n, k int) []int {
	if k < 1 {
		panic(fmt.Sprintf("rtmetric: k must be >= 1, got %d", k))
	}
	sizes := make([]int, k+1)
	for i := 0; i <= k; i++ {
		s := int(math.Ceil(math.Pow(float64(n), float64(i)/float64(k))))
		if s < 1 {
			s = 1
		}
		if s > n {
			s = n
		}
		sizes[i] = s
	}
	sizes[k] = n
	return sizes
}

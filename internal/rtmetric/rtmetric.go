// Package rtmetric implements the roundtrip-metric machinery of §1.1 and
// §2 of the paper: the total orders Init_v induced by the roundtrip
// distance r(u,v) = d(u,v) + d(v,u), the neighborhood balls N_i(v) (the
// first n^(i/k) nodes of Init_v), and the radius balls Nhat_m(v) used by
// the sparse-cover construction of §4.
package rtmetric

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"rtroute/internal/graph"
	"rtroute/internal/parallel"
)

// Space bundles a graph, a distance oracle, and (lazily computed) Init_v
// total orders. The tie-breaking IDs default to the topological node
// indices; in TINN deployments callers may supply the node-name
// permutation instead (the paper's IDu, §2).
//
// Building Init_v touches only the two distance rows anchored at v
// (d(v,·) and d(·,v)), so a Space over a lazy oracle costs two Dijkstras
// per ordered node instead of an eager all-pairs pass.
type Space struct {
	G   *graph.Graph
	M   graph.DistanceOracle
	ids []int32

	// idBits is the width of the largest tie-breaking id, or -1 when some
	// id is negative (order then cannot pack its sort keys).
	idBits int

	initOrders [][]graph.NodeID // lazily filled per source node
	ranks      [][]int32        // ranks[v][u] = position of u in Init_v
}

// New creates a Space over g with a distance oracle m. If ids is nil the
// topological indices are used for tie-breaking.
func New(g *graph.Graph, m graph.DistanceOracle, ids []int32) *Space {
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
	idBits := 0
	for _, id := range ids {
		if id < 0 {
			idBits = -1
			break
		}
		idBits = max(idBits, bits.Len32(uint32(id)))
	}
	return &Space{
		G:          g,
		M:          m,
		ids:        ids,
		idBits:     idBits,
		initOrders: make([][]graph.NodeID, g.N()),
		ranks:      make([][]int32, g.N()),
	}
}

// order materializes Init_v and its rank array from the two distance
// rows anchored at v, fwd = d(v, ·) and rev = d(·, v), sorting on them
// directly so the comparator never goes back to the oracle: O(n log n)
// and one FromSource and one ToSink fetch per order, whoever makes them.
//
// The order is by (r(v,u), d(u,v), id(u)). When the three fields and the
// node index fit one uint64 side by side — they do unless a distance is
// astronomically large, as across an administratively down edge — each
// node becomes one packed word and the sort is a radix sort on the
// fields' bits; otherwise the comparator sort runs on the rows. Both
// give the same order: the packing preserves the lexicographic
// comparison, and ids are distinct, so the node index in the low bits
// never decides.
func (s *Space) order(fwd, rev []graph.Dist) ([]graph.NodeID, []int32) {
	n := s.G.N()
	key := make([]uint64, n) // r(v, u), packed in place when the fields fit
	var maxR, maxRev graph.Dist
	for u := range key {
		r := graph.RFromRows(fwd, rev, graph.NodeID(u))
		key[u] = uint64(r)
		maxR, maxRev = max(maxR, r), max(maxRev, rev[u])
	}
	ord := make([]graph.NodeID, n)
	revBits, nodeBits := bits.Len64(uint64(maxRev)), bits.Len(uint(n))
	if width := bits.Len64(uint64(maxR)) + revBits + s.idBits + nodeBits; s.idBits >= 0 && width <= 64 {
		for u, r := range key {
			key[u] = ((r<<revBits|uint64(rev[u]))<<s.idBits|uint64(s.ids[u]))<<nodeBits | uint64(u)
		}
		// The words start in node order and the sort is stable, so the
		// node bits need no pass of their own.
		for i, k := range radixSort(key, make([]uint64, n), nodeBits, width) {
			ord[i] = graph.NodeID(k & (1<<nodeBits - 1))
		}
	} else {
		for i := range ord {
			ord[i] = graph.NodeID(i)
		}
		sort.Slice(ord, func(i, j int) bool {
			a, b := ord[i], ord[j]
			if key[a] != key[b] {
				return key[a] < key[b]
			}
			if rev[a] != rev[b] {
				return rev[a] < rev[b]
			}
			return s.ids[a] < s.ids[b]
		})
	}
	rank := make([]int32, n)
	for i, u := range ord {
		rank[u] = int32(i)
	}
	return ord, rank
}

// digitBits is radixSort's digit width: its count table of 2^11 words
// stays in L1, and at n = 1,024 with weights up to 8 the 22 key bits
// above the node index take two passes.
const digitBits = 11

// radixSort sorts keys stably by their bits [lo, hi) — every bit above
// hi must be zero — in least-significant-digit passes, with tmp
// (len(keys) words) as the other buffer. It returns whichever of the two
// holds the result. A pass in which every key has the same digit moves
// nothing and is skipped.
func radixSort(keys, tmp []uint64, lo, hi int) []uint64 {
	if len(keys) < 2 {
		return keys
	}
	var count [1 << digitBits]int
	for shift := lo; shift < hi; shift += digitBits {
		clear(count[:])
		for _, k := range keys {
			count[k>>shift&(1<<digitBits-1)]++
		}
		if count[keys[0]>>shift&(1<<digitBits-1)] == len(keys) {
			continue
		}
		sum := 0
		for d, c := range count {
			count[d], sum = sum, sum+c
		}
		for _, k := range keys {
			d := k >> shift & (1<<digitBits - 1)
			tmp[count[d]] = k
			count[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// Init returns the total order Init_v = v ≺_v u1 ≺_v u2 ≺_v ... over all
// n nodes. The returned slice is cached and must not be modified.
func (s *Space) Init(v graph.NodeID) []graph.NodeID {
	if s.initOrders[v] == nil {
		s.Fill(v, s.M.FromSource(v), s.M.ToSink(v))
	}
	return s.initOrders[v]
}

// Fill is Init for a caller that already holds the two rows anchored at
// v — fwd = d(v, ·), rev = d(·, v) as the Space's oracle would return
// them — so the order costs no row fetch of its own. A cached order is
// kept. Like Precompute's fills, calls for distinct v may run
// concurrently.
func (s *Space) Fill(v graph.NodeID, fwd, rev []graph.Dist) {
	if s.initOrders[v] == nil {
		s.initOrders[v], s.ranks[v] = s.order(fwd, rev)
	}
}

// Rank returns the position of u in Init_v (0 for u == v).
func (s *Space) Rank(v, u graph.NodeID) int {
	s.Init(v)
	return int(s.ranks[v][u])
}

// Ranks returns the whole rank row of Init_v: Ranks(v)[u] == Rank(v, u).
// The returned slice is cached and must not be modified.
func (s *Space) Ranks(v graph.NodeID) []int32 {
	s.Init(v)
	return s.ranks[v]
}

// Neighborhood returns the first size nodes of Init_v (v itself included,
// as in the paper where Init_v begins with v). size is clamped to [1, n].
func (s *Space) Neighborhood(v graph.NodeID, size int) []graph.NodeID {
	n := s.G.N()
	if size < 1 {
		size = 1
	}
	if size > n {
		size = n
	}
	return s.Init(v)[:size]
}

// Contains reports whether u is among the first size nodes of Init_v,
// without materializing the slice.
func (s *Space) Contains(v graph.NodeID, size int, u graph.NodeID) bool {
	return s.Rank(v, u) < size
}

// Precompute fills the Init_v cache for every node that lacks an order,
// across a worker pool. The lazy cache is not safe for concurrent fills,
// so scheme builders call Precompute once, before anything reads an
// order, and then read the orders freely. workers <= 0 selects
// GOMAXPROCS.
func (s *Space) Precompute(workers int) {
	// Each index writes only its own v's slots: disjoint.
	_ = parallel.ForEach(s.G.N(), workers, func(v int) error {
		s.Init(graph.NodeID(v))
		return nil
	})
}

// InvalidateOrders drops the cached Init_v orders of the given nodes so
// they are recomputed — against the oracle's current rows — on next
// access. The incremental maintainers call this with the churn dirty set:
// a node outside the may-use affected set of a topology event has
// bit-identical distance rows in both directions, hence a bit-identical
// Init order, so its cache entry stays valid across the mutation.
func (s *Space) InvalidateOrders(nodes []graph.NodeID) {
	for _, v := range nodes {
		s.initOrders[v] = nil
		s.ranks[v] = nil
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

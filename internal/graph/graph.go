// Package graph implements the directed weighted graph substrate used by
// every routing scheme in this repository: strongly connected digraphs with
// positive integer edge weights, adversarial fixed-port edge labels,
// shortest-path machinery (forward and reverse Dijkstra, all-pairs, lazy
// per-row oracles), and Tarjan strong-connectivity checking.
//
// Weights are int64 so that all distance arithmetic — and therefore every
// stretch-bound check in the test suite — is exact. The paper's weight
// model (positive reals in [1, W]) is faithfully represented: any rational
// instance can be scaled to integers without changing shortest paths.
//
// Storage model: adjacency is built incrementally as per-node edge slices
// (the only mutable representation), and the first port/pair lookup seals
// a CSR index over it — flat edge arrays with offset tables, per-node
// O(1) port tables (flat dense or open-addressed), and an (u,v)→slot
// hash — so the per-hop hot
// path (EdgeByPort, PortTo, HasEdge) costs O(1) instead of an
// O(degree) scan. Mutations invalidate the index; it is rebuilt lazily and
// concurrency-safely on the next lookup. Mutating a graph concurrently
// with reads is not safe (like the built-in map); concurrent reads,
// including the ones that trigger sealing, are.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"rtroute/internal/sealed"
)

// Dist is an exact (integer) path length. Roundtrip distances, cluster
// radii and stretch-bound checks are all computed in Dist arithmetic.
type Dist = int64

// Inf is the distance between unreachable pairs. It is far below the
// int64 overflow threshold so that Inf+Inf does not wrap.
const Inf Dist = math.MaxInt64 / 4

// DownWeight marks an administratively down edge in a churning graph.
// A down edge keeps its adjacency slot — so port labels, CSR layout and
// neighbor lists are bit-stable across down/up flaps — but its weight is
// pushed so high that, on a graph that stays strongly connected over the
// live edges, no shortest path (and no shortest-path tie) ever uses it.
// Forwarding layers treat traversing an edge of weight >= DownWeight as
// a routing failure rather than a hop.
const DownWeight Dist = Inf / 2

// NodeID indexes a vertex. In the TINN model the *topological* index used
// by package graph is distinct from the node's *name*; see internal/names.
type NodeID = int32

// PortID is an adversarial local edge label (fixed-port model, §1.1.3 of
// the paper): unique per node among its out-edges, drawn from a set of
// size O(n), with no global consistency.
type PortID = int32

// Edge is a directed edge as seen from its tail.
type Edge struct {
	To     NodeID
	Port   PortID
	Weight Dist
}

// InEdge is a directed edge as seen from its head.
type InEdge struct {
	From   NodeID
	Weight Dist
}

// pairKey packs a directed node pair for the (u,v)→slot hash.
func pairKey(u, v NodeID) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// csrIndex is the sealed lookup index: the adjacency flattened into CSR
// arrays plus O(1) per-node port tables. It is immutable once published.
type csrIndex struct {
	outStart []int32 // len n+1; out-edges of u are outEdges[outStart[u]:outStart[u+1]]
	outEdges []Edge  // flat copy, same per-node slot order as the build slices
	inStart  []int32
	inEdges  []InEdge

	// O(1) port resolution, compiled at seal time: each node's segment
	// of ports holds its out-edges themselves, so a hit is one probe
	// into one array. A node whose label span (max-min+1) is close to
	// its degree gets a flat dense segment, the edge labeled base+i in
	// slot i — the common case for default contiguous labels; every
	// other node with out-edges gets an open-addressed segment
	// (power-of-two size, linear probing, load factor <= 1/2) so
	// adversarially scattered labels are O(1) expected too (sealed.Hash
	// takes any int32, negative labels included). Weights are positive,
	// so Weight == 0 marks an empty slot.
	portSeg []portSeg // len n
	ports   []Edge
}

// portSeg locates one node's port segment in csrIndex.ports.
type portSeg struct {
	start, size int32  // size 0: no out-edge
	base        PortID // dense: the smallest label
	dense       bool
}

// denseSpanOK reports whether a node with the given degree and port
// label span should be compiled as a flat dense table. The 4x+8 bound
// caps the dense tables' total memory at a small multiple of the edge
// count while still accepting contiguous and lightly gapped labelings.
// The span is computed in int64: extreme labels restored by the graph
// reader can make max-min+1 overflow int32.
func denseSpanOK(span int64, deg int32) bool { return span <= 4*int64(deg)+8 }

// Graph is a directed graph with positive weights and fixed-port labels.
// The zero value is an empty graph; use New to create one with n nodes.
type Graph struct {
	out [][]Edge
	in  [][]InEdge
	m   int
	// pair maps (u,v) to the slot of the edge in out[u]. Maintained
	// eagerly by AddEdge, so HasEdge/PortTo and duplicate detection are
	// O(1) even while the graph is still being built.
	pair map[uint64]int32

	// idx is the sealed CSR index, nil until the first port lookup and
	// after any mutation. sealMu serializes (re)builds.
	idx    atomic.Pointer[csrIndex]
	sealMu sync.Mutex

	// gen counts mutations. Caching layers (LazyOracle, churn
	// maintainers) snapshot it and treat a later mismatch as "every
	// derived row is stale" — unless wlog can say what changed.
	gen atomic.Uint64
	// wlog records every SetEdgeWeight after generation wlogFrom, one
	// entry per generation, so a cache can re-derive rows from their
	// previous version instead of recomputing them. Any other mutation
	// empties it; it keeps at most weightLogCap entries.
	wlog     []weightChange
	wlogFrom uint64
}

// weightLogCap bounds Graph.wlog. When it fills, the older half goes:
// a cache row that many reweightings behind is recomputed instead.
const weightLogCap = 4096

// weightChange is one edge's reweighting: in the log, the one
// SetEdgeWeight that produced generation gen; in a delta, the net change.
type weightChange struct {
	gen      uint64
	from, to NodeID
	old, new Dist
}

// New returns an empty graph on n nodes.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Graph{
		out:  make([][]Edge, n),
		in:   make([][]InEdge, n),
		pair: make(map[uint64]int32),
	}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.out) }

// M returns the number of directed edges.
func (g *Graph) M() int { return g.m }

// invalidate drops the sealed index after a mutation that is not a
// reweighting, and the weight log with it: no row survives the change.
func (g *Graph) invalidate() {
	g.idx.Store(nil)
	g.wlog = g.wlog[:0]
	g.wlogFrom = g.gen.Add(1)
}

// weightChangesSince returns the net reweightings that took the graph
// from generation gen to its current one: one entry per edge whose
// weight differs, in the order of each edge's first change. ok is false
// when the log cannot tell — a mutation other than SetEdgeWeight came
// after gen, or the log no longer reaches back that far.
func (g *Graph) weightChangesSince(gen uint64) (changes []weightChange, ok bool) {
	if gen < g.wlogFrom {
		return nil, false
	}
	at := make(map[uint64]int)
	for _, e := range g.wlog {
		if e.gen <= gen {
			continue
		}
		k := pairKey(e.from, e.to)
		if i, seen := at[k]; seen {
			changes[i].new = e.new
			continue
		}
		at[k] = len(changes)
		changes = append(changes, e)
	}
	changes = slices.DeleteFunc(changes, func(c weightChange) bool { return c.old == c.new })
	return changes, true
}

// Generation returns the mutation counter: any two calls separated by a
// mutation return different values. Derived caches key their contents to
// the generation they were computed under.
func (g *Graph) Generation() uint64 { return g.gen.Load() }

// Seal forces the CSR lookup index to build now instead of on the first
// port lookup. Plane compilation calls it so that the traffic engine's
// workers start against a fully sealed, immutable index rather than
// racing (safely, but serially) to trigger the lazy seal on their first
// hop. Sealing an already-sealed graph is a no-op.
func (g *Graph) Seal() { g.index() }

// index returns the sealed CSR index, building it on first use. Safe for
// concurrent callers; the built index is immutable.
func (g *Graph) index() *csrIndex {
	if idx := g.idx.Load(); idx != nil {
		return idx
	}
	g.sealMu.Lock()
	defer g.sealMu.Unlock()
	if idx := g.idx.Load(); idx != nil {
		return idx
	}
	n := g.N()
	idx := &csrIndex{
		outStart: make([]int32, n+1),
		inStart:  make([]int32, n+1),
		outEdges: make([]Edge, 0, g.m),
		inEdges:  make([]InEdge, 0, g.m),
	}
	for u := 0; u < n; u++ {
		idx.outStart[u] = int32(len(idx.outEdges))
		idx.outEdges = append(idx.outEdges, g.out[u]...)
		idx.inStart[u] = int32(len(idx.inEdges))
		idx.inEdges = append(idx.inEdges, g.in[u]...)
	}
	idx.outStart[n] = int32(len(idx.outEdges))
	idx.inStart[n] = int32(len(idx.inEdges))
	idx.compilePortTables(n)
	g.idx.Store(idx)
	return idx
}

// compilePortTables builds the O(1) port-resolution segments over the
// already-populated CSR arrays.
func (idx *csrIndex) compilePortTables(n int) {
	idx.portSeg = make([]portSeg, n)
	// Size the segments in one pass, then fill.
	var total int32
	for u := range idx.portSeg {
		out := idx.outEdges[idx.outStart[u]:idx.outStart[u+1]]
		if len(out) == 0 {
			continue
		}
		minP, maxP := out[0].Port, out[0].Port
		for _, e := range out[1:] {
			minP, maxP = min(minP, e.Port), max(maxP, e.Port)
		}
		seg := portSeg{start: total, base: minP}
		if span := int64(maxP) - int64(minP) + 1; denseSpanOK(span, int32(len(out))) {
			seg.size, seg.dense = int32(span), true
		} else {
			seg.size = 2
			for seg.size < 2*int32(len(out)) {
				seg.size <<= 1
			}
		}
		idx.portSeg[u] = seg
		total += seg.size
	}
	idx.ports = make([]Edge, total)
	for u, seg := range idx.portSeg {
		ports, mask := idx.ports[seg.start:seg.start+seg.size], uint32(seg.size)-1
		for _, e := range idx.outEdges[idx.outStart[u]:idx.outStart[u+1]] {
			if seg.dense {
				ports[e.Port-seg.base] = e
				continue
			}
			i := sealed.Hash(e.Port) & mask
			for ports[i].Weight != 0 {
				i = (i + 1) & mask
			}
			ports[i] = e
		}
	}
}

// edgeByPort resolves (u, port) with one probe into u's segment: the
// slot at port-base of a dense one, else the hashed run. A node with no
// out-edge has an empty segment and no port to find.
func (idx *csrIndex) edgeByPort(u NodeID, port PortID) (Edge, bool) {
	seg := idx.portSeg[u]
	ports := idx.ports[seg.start : seg.start+seg.size]
	if seg.dense {
		// The difference of two int32 labels needs int64.
		if off := int64(port) - int64(seg.base); off >= 0 && off < int64(len(ports)) {
			return ports[off], ports[off].Weight != 0
		}
		return Edge{}, false
	}
	if len(ports) == 0 {
		return Edge{}, false
	}
	mask := uint32(len(ports)) - 1
	for i := sealed.Hash(port) & mask; ; i = (i + 1) & mask {
		if e := ports[i]; e.Weight == 0 || e.Port == port {
			return e, e.Weight != 0
		}
	}
}

// PortTable is an immutable snapshot of a sealed graph's port-resolution
// index. Hot forwarding loops take one per run so every hop is a direct
// table lookup with no per-hop atomic index load. Taking a PortTable
// seals the graph; mutations made afterwards are not reflected in the
// snapshot (the next PortTable call returns the rebuilt index).
type PortTable struct{ idx *csrIndex }

// PortTable returns the sealed port-resolution snapshot, building the
// index if needed.
func (g *Graph) PortTable() PortTable { return PortTable{idx: g.index()} }

// EdgeByPort returns the out-edge of u labeled with the given port in
// O(1) (dense or hashed table).
func (t PortTable) EdgeByPort(u NodeID, port PortID) (Edge, bool) {
	return t.idx.edgeByPort(u, port)
}

// AddEdge inserts the directed edge (u, v) with weight w. The edge's port
// label defaults to the current out-degree of u; AssignPorts can later
// re-label all ports adversarially. AddEdge rejects self-loops,
// non-positive weights, duplicate edges and out-of-range endpoints.
func (g *Graph) AddEdge(u, v NodeID, w Dist) error {
	n := NodeID(g.N())
	switch {
	case u < 0 || u >= n || v < 0 || v >= n:
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
	case u == v:
		return fmt.Errorf("graph: self-loop at %d", u)
	case w <= 0:
		return fmt.Errorf("graph: non-positive weight %d on (%d,%d)", w, u, v)
	case w >= Inf:
		return fmt.Errorf("graph: weight %d on (%d,%d) exceeds Inf", w, u, v)
	}
	if _, dup := g.pair[pairKey(u, v)]; dup {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	g.pair[pairKey(u, v)] = int32(len(g.out[u]))
	g.out[u] = append(g.out[u], Edge{To: v, Weight: w, Port: PortID(len(g.out[u]))})
	g.in[v] = append(g.in[v], InEdge{From: u, Weight: w})
	g.m++
	g.invalidate()
	return nil
}

// AddEdgePort inserts the edge with an explicit port label — the
// snapshot-restore path (graph.Read, the wire codec). The label is
// restored verbatim; callers loading untrusted input should finish with
// ValidatePorts, which rejects per-node duplicates.
func (g *Graph) AddEdgePort(u, v NodeID, w Dist, port PortID) error {
	if err := g.AddEdge(u, v, w); err != nil {
		return err
	}
	g.setPort(u, len(g.out[u])-1, port)
	return nil
}

// ValidatePorts reports the first duplicate per-node out-port label, if
// any — the invariant EdgeByPort resolution relies on.
func (g *Graph) ValidatePorts() error {
	for u := range g.out {
		seen := make(map[PortID]bool, len(g.out[u]))
		for _, e := range g.out[u] {
			if seen[e.Port] {
				return fmt.Errorf("graph: node %d has duplicate port %d", u, e.Port)
			}
			seen[e.Port] = true
		}
	}
	return nil
}

// MustAddEdge is AddEdge for construction code where the arguments are
// known valid; it panics on error.
func (g *Graph) MustAddEdge(u, v NodeID, w Dist) {
	if err := g.AddEdge(u, v, w); err != nil {
		panic(err)
	}
}

// SetEdgeWeight changes the weight of the existing edge (u, v) in place,
// preserving its port label and adjacency slot — the churn-plane mutation:
// weight perturbation uses ordinary weights, edge down/up toggles between
// the real weight and DownWeight. Weights up to and including DownWeight
// are accepted (unlike AddEdge, which rejects anything that high).
func (g *Graph) SetEdgeWeight(u, v NodeID, w Dist) error {
	slot, ok := g.pair[pairKey(u, v)]
	if !ok {
		return fmt.Errorf("graph: no edge (%d,%d) to reweight", u, v)
	}
	if w <= 0 || w > DownWeight {
		return fmt.Errorf("graph: weight %d on (%d,%d) outside (0, DownWeight]", w, u, v)
	}
	old := g.out[u][slot].Weight
	g.out[u][slot].Weight = w
	for i := range g.in[v] {
		if g.in[v][i].From == u {
			g.in[v][i].Weight = w
			break
		}
	}
	g.idx.Store(nil)
	if len(g.wlog) == weightLogCap {
		g.wlogFrom = g.wlog[weightLogCap/2-1].gen
		g.wlog = append(g.wlog[:0], g.wlog[weightLogCap/2:]...)
	}
	g.wlog = append(g.wlog, weightChange{g.gen.Add(1), u, v, old, w})
	return nil
}

// EdgeWeight returns the weight of the edge (u, v), if present.
func (g *Graph) EdgeWeight(u, v NodeID) (Dist, bool) {
	slot, ok := g.pair[pairKey(u, v)]
	if !ok {
		return 0, false
	}
	return g.out[u][slot].Weight, true
}

// HasEdge reports whether the directed edge (u, v) exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.pair[pairKey(u, v)]
	return ok
}

// Out returns the out-edge slice of u. Callers must not modify it. When
// the graph is sealed the slice aliases the flat CSR array, so iterating
// adjacent nodes walks contiguous memory.
func (g *Graph) Out(u NodeID) []Edge {
	if idx := g.idx.Load(); idx != nil {
		return idx.outEdges[idx.outStart[u]:idx.outStart[u+1]]
	}
	return g.out[u]
}

// In returns the in-edge slice of u. Callers must not modify it.
func (g *Graph) In(u NodeID) []InEdge {
	if idx := g.idx.Load(); idx != nil {
		return idx.inEdges[idx.inStart[u]:idx.inStart[u+1]]
	}
	return g.in[u]
}

// OutDegree returns the number of out-edges of u.
func (g *Graph) OutDegree(u NodeID) int { return len(g.out[u]) }

// EdgeByPort returns the out-edge of u labeled with the given port.
// This is the only lookup a forwarding function may use to move a packet:
// routing tables store ports, and the simulator resolves them here. On a
// sealed graph it is O(1): one array load for dense labelings, an
// open-addressed probe for scattered ones. Loops that resolve many ports
// should hoist g.PortTable() and query that instead.
func (g *Graph) EdgeByPort(u NodeID, port PortID) (Edge, bool) {
	return g.index().edgeByPort(u, port)
}

// PortTo returns the port label of the edge (u, v) in O(1).
func (g *Graph) PortTo(u, v NodeID) (PortID, bool) {
	slot, ok := g.pair[pairKey(u, v)]
	if !ok {
		return 0, false
	}
	return g.out[u][slot].Port, true
}

// setPort relabels the port of the edge in the given slot of u's
// out-edge list, invalidating the sealed index. Internal mutation hook
// for AssignPorts and the graph reader.
func (g *Graph) setPort(u NodeID, slot int, port PortID) {
	g.out[u][slot].Port = port
	g.invalidate()
}

// AssignPorts relabels every node's out-edge ports adversarially: each
// node's ports become distinct values drawn from [0, 4n), permuted with
// the supplied source of randomness, mirroring §1.1.3 ("v may have another
// link called port 200, but this might go to a different vertex").
// intn must behave like (*math/rand.Rand).Intn.
func (g *Graph) AssignPorts(intn func(int) int) {
	space := 4 * g.N()
	if space < 4 {
		space = 4
	}
	for u := range g.out {
		used := make(map[PortID]bool, len(g.out[u]))
		for i := range g.out[u] {
			for {
				p := PortID(intn(space))
				if !used[p] {
					used[p] = true
					g.out[u][i].Port = p
					break
				}
			}
		}
	}
	g.invalidate()
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.N())
	c.m = g.m
	for u := range g.out {
		c.out[u] = append([]Edge(nil), g.out[u]...)
		c.in[u] = append([]InEdge(nil), g.in[u]...)
	}
	for k, v := range g.pair {
		c.pair[k] = v
	}
	return c
}

// MaxWeight returns the largest edge weight (0 for an edgeless graph).
func (g *Graph) MaxWeight() Dist {
	var w Dist
	for _, edges := range g.out {
		for _, e := range edges {
			if e.Weight > w {
				w = e.Weight
			}
		}
	}
	return w
}

package graph

import (
	"container/list"
	"fmt"
	"sync"
)

// DefaultLazyCacheRows is the row budget NewLazyOracle uses when the
// caller passes cacheRows <= 0: enough to keep every scheme-construction
// phase streaming without recomputation on mid-size graphs, while holding
// peak oracle memory to cacheRows·n words instead of n^2.
const DefaultLazyCacheRows = 256

// LazyOracle is a DistanceOracle that computes single-source distance
// rows on demand — a forward Dijkstra for FromSource, a reverse Dijkstra
// for ToSink — and retains up to a fixed number of completed rows in an
// LRU cache. It never materializes the n×n matrix, so schemes built over
// it scale to graphs where the dense metric cannot be allocated.
//
// The oracle is safe for concurrent use: concurrent requests for the same
// row share one Dijkstra (the losers block until the winner publishes),
// and rows already cached are returned without recomputation. Rows handed
// out remain valid after eviction (eviction only drops the cache's
// reference); callers must treat them as read-only.
//
// The oracle snapshots nothing: it runs Dijkstra over the live graph.
// Mutating the graph between queries is safe: every query checks the
// graph's mutation generation and flushes rows computed under an older
// one, so a cached row never outlives the topology it was measured on.
// (Mutating concurrently with in-flight queries remains unsafe, exactly
// as for the graph itself; a reader racing a mutation may observe the
// pre-mutation row once, never a torn one.)
type LazyOracle struct {
	g        *Graph
	capacity int

	mu    sync.Mutex
	rows  map[rowKey]*rowEntry
	lru   list.List // front = most recently used; values are *rowEntry
	gen   uint64    // graph generation the cached rows were computed under
	stats LazyStats
}

type rowKey struct {
	node NodeID
	rev  bool
}

type rowEntry struct {
	key   rowKey
	elem  *list.Element
	ready chan struct{} // closed once dist is published
	dist  []Dist
	// parent is a reverse row's next-hop vector (parent[u] = u's next hop
	// toward key.node), kept because the reverse Dijkstra produces it
	// anyway and cluster construction would otherwise re-run the search
	// for it. Forward rows leave it nil.
	parent []NodeID
}

// computed reports whether the entry's row has been published (its ready
// channel closed). Non-blocking.
func (e *rowEntry) computed() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// LazyStats reports cache behavior for tests and benchmarks.
type LazyStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Invalidations counts whole-cache flushes triggered by graph
	// mutations (generation mismatches observed at query time).
	Invalidations uint64
	// PeakRows is the largest number of rows ever resident at once,
	// counting rows still being computed; peak oracle memory is about
	// PeakRows * n * 8 bytes (12 for a reverse row, which keeps its
	// parents). It can exceed the capacity by the number
	// of concurrent computations in flight (in-flight rows are never
	// evicted), but never under single-threaded use.
	PeakRows int
}

// NewLazyOracle creates a lazy oracle over g holding at most cacheRows
// completed rows (forward and reverse rows count separately).
// cacheRows <= 0 selects DefaultLazyCacheRows; the cap is clamped to at
// least 2 so that a roundtrip query (one forward plus one reverse row of
// the same node) never evicts its own working set.
func NewLazyOracle(g *Graph, cacheRows int) *LazyOracle {
	if cacheRows <= 0 {
		cacheRows = DefaultLazyCacheRows
	}
	if cacheRows < 2 {
		cacheRows = 2
	}
	return &LazyOracle{
		g:        g,
		capacity: cacheRows,
		rows:     make(map[rowKey]*rowEntry),
	}
}

// N implements DistanceOracle.
func (o *LazyOracle) N() int { return o.g.N() }

// Capacity returns the maximum number of cached rows.
func (o *LazyOracle) Capacity() int { return o.capacity }

// Stats returns a snapshot of cache counters.
func (o *LazyOracle) Stats() LazyStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stats
}

// RowMisses returns how many rows o has computed on demand so far — one
// shortest-path search each — and 0 for an oracle that computes none.
// Callers difference two readings to count the searches a pass ran.
func RowMisses(o DistanceOracle) int {
	if l, ok := o.(*LazyOracle); ok {
		return int(l.Stats().Misses)
	}
	return 0
}

// row returns the requested row's entry, computing it at most once per
// residency. The double-checked entry protocol: under the lock we either
// find an entry (hit — possibly still being computed by another
// goroutine) or insert a placeholder and become its computer; the
// Dijkstra itself runs outside the lock.
func (o *LazyOracle) row(key rowKey) *rowEntry {
	o.mu.Lock()
	// Generation check: rows cached under an older graph generation are
	// stale — drop the whole cache before serving. In-flight entries are
	// unlinked too (their computation finishes and feeds earlier waiters,
	// but no later request can hit them).
	if gen := o.g.Generation(); gen != o.gen {
		if o.lru.Len() > 0 {
			o.stats.Invalidations++
		}
		o.rows = make(map[rowKey]*rowEntry)
		o.lru.Init()
		o.gen = gen
	}
	if e, ok := o.rows[key]; ok {
		o.lru.MoveToFront(e.elem)
		o.stats.Hits++
		o.mu.Unlock()
		<-e.ready
		return e
	}
	e := &rowEntry{key: key, ready: make(chan struct{})}
	e.elem = o.lru.PushFront(e)
	o.rows[key] = e
	o.stats.Misses++
	// Evict from the cold end, skipping rows whose computation is still
	// in flight: evicting those would break single-flight dedup (a
	// re-request would start a duplicate Dijkstra) and hide their memory
	// from PeakRows. Under contention the cache may therefore briefly
	// hold capacity + in-flight rows; PeakRows reports that honestly.
	for el := o.lru.Back(); el != nil && o.lru.Len() > o.capacity; {
		victim := el.Value.(*rowEntry)
		prev := el.Prev()
		if victim != e && victim.computed() {
			o.lru.Remove(el)
			delete(o.rows, victim.key)
			o.stats.Evictions++
		}
		el = prev
	}
	if o.lru.Len() > o.stats.PeakRows {
		o.stats.PeakRows = o.lru.Len()
	}
	o.mu.Unlock()

	// Pooled scratch: the only allocation a row fill retains is the
	// cached row itself (and a reverse row's parents).
	s := getScratch()
	if key.rev {
		r := s.DijkstraRev(o.g, key.node)
		e.dist = append([]Dist(nil), r.Dist...)
		e.parent = append([]NodeID(nil), r.Parent...)
	} else {
		e.dist = append([]Dist(nil), s.Dijkstra(o.g, key.node).Dist...)
	}
	putScratch(s)
	close(e.ready)
	return e
}

// FromSource implements DistanceOracle: d(u, ·) via one forward Dijkstra.
func (o *LazyOracle) FromSource(u NodeID) []Dist {
	o.check(u)
	return o.row(rowKey{node: u}).dist
}

// ToSink implements DistanceOracle: d(·, v) via one reverse Dijkstra.
func (o *LazyOracle) ToSink(v NodeID) []Dist {
	o.check(v)
	return o.row(rowKey{node: v, rev: true}).dist
}

// ToSinkTree is ToSink with the shortest-path in-tree of v: Dist is the
// same cached row d(·, v), and Parent[u] is u's next hop toward v (-1 at v
// and at unreachable nodes) — one reverse Dijkstra serves both, so a
// consumer that needs first hops toward v (the stretch-3 clusters) shares
// the row the Init orders already paid for. Read-only, like every row.
func (o *LazyOracle) ToSinkTree(v NodeID) SSSP {
	o.check(v)
	e := o.row(rowKey{node: v, rev: true})
	return SSSP{Dist: e.dist, Parent: e.parent}
}

// D implements DistanceOracle.
func (o *LazyOracle) D(u, v NodeID) Dist { return o.FromSource(u)[v] }

// R implements DistanceOracle. Both directions come from rows anchored at
// u (forward row and reverse row), so any fixed-u scan stays within two
// cached rows.
func (o *LazyOracle) R(u, v NodeID) Dist {
	duv := o.FromSource(u)[v]
	dvu := o.ToSink(u)[v]
	if duv >= Inf || dvu >= Inf {
		return Inf
	}
	return duv + dvu
}

func (o *LazyOracle) check(u NodeID) {
	if u < 0 || int(u) >= o.g.N() {
		panic(fmt.Sprintf("graph: lazy oracle query for node %d outside [0,%d)", u, o.g.N()))
	}
}

package graph

import (
	"container/list"
	"fmt"
	"sync"

	"rtroute/internal/parallel"
)

// DefaultLazyCacheRows is the floor of the default row budget: the rows
// NewLazyOracle keeps when the caller passes cacheRows <= 0 and the
// graph is too large for every row to fit DefaultLazyCacheBytes.
const DefaultLazyCacheRows = 256

// DefaultLazyCacheBytes is the default budget's byte ceiling. Under it
// the oracle keeps all 2n rows (every row up to n ≈ 1,450), so a repair
// re-derives each dirty row from its resident version instead of
// recomputing it; above it, as many rows as fit, and never fewer than
// DefaultLazyCacheRows.
const DefaultLazyCacheBytes = 32 << 20

// LazyOracle is a DistanceOracle that computes single-source distance
// rows on demand — a forward Dijkstra for FromSource, a reverse Dijkstra
// for ToSink — and retains up to a fixed number of completed rows in an
// LRU cache. It holds no more rows than its budget, so schemes built
// over it scale to graphs whose n×n distances would not fit in memory.
//
// The oracle is safe for concurrent use: concurrent requests for the same
// row share one computation (the losers block until the winner
// publishes), and rows already cached are returned without recomputation.
// Rows handed out are never written and remain valid after eviction or
// update; callers must treat them as read-only.
//
// The oracle snapshots nothing: it reads the live graph. Mutating the
// graph between queries is safe: every query checks the graph's mutation
// generation. A resident row computed under an older generation is
// re-derived from its previous version on its next access when the graph
// has only been reweighted since (see Graph.SetEdgeWeight's log) — the
// incremental update in update.go, which returns exactly the row a fresh
// search would. Any other mutation, or a log that no
// longer reaches back to the oracle's generation, flushes the cache, so a
// cached row never outlives the topology it was measured on. (Mutating
// concurrently with in-flight queries remains unsafe, exactly as for the
// graph itself; a reader racing a mutation may observe the pre-mutation
// row once, never a torn one.)
type LazyOracle struct {
	g        *Graph
	capacity int

	mu    sync.Mutex
	rows  map[rowKey]*rowEntry
	lru   list.List // front = most recently used; values are *rowEntry
	gen   uint64    // graph generation of the oracle's last query
	stats LazyStats
	// deltas caches, for the current generation, the net reweightings
	// since each older generation a resident row was computed under.
	deltas map[uint64][]weightChange
}

type rowKey struct {
	node NodeID
	rev  bool
}

type rowEntry struct {
	key   rowKey
	elem  *list.Element
	ready chan struct{} // closed once dist is published
	gen   uint64        // graph generation the row is computed under
	dist  []Dist
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
	Hits uint64
	// Misses counts rows computed in full: by a search, or, for
	// AllPairs' reverse rows, from the forward rows.
	Misses uint64
	// Updates counts rows re-derived from their resident version after
	// the graph was reweighted, with no full search.
	Updates   uint64
	Evictions uint64
	// Invalidations counts whole-cache flushes triggered by graph
	// mutations the weight log cannot replay (generation mismatches
	// observed at query time).
	Invalidations uint64
	// PeakRows is the largest number of rows ever resident at once,
	// counting rows still being computed; peak oracle memory is about
	// PeakRows * n * 8 bytes. It can exceed the capacity by the number
	// of concurrent computations in flight (in-flight rows are never
	// evicted), but never under single-threaded use.
	PeakRows int
}

// NewLazyOracle creates a lazy oracle over g holding at most cacheRows
// completed rows (forward and reverse rows count separately).
// cacheRows <= 0 selects the default budget: all 2n rows while they fit
// DefaultLazyCacheBytes, else as many as fit, at least
// DefaultLazyCacheRows. The cap is clamped to at least 2 so that a
// roundtrip query (one forward plus one reverse row of the same node)
// never evicts its own working set.
func NewLazyOracle(g *Graph, cacheRows int) *LazyOracle {
	if cacheRows <= 0 {
		// A row is 8n bytes, forward or reverse.
		cacheRows = min(2*g.N(), max(DefaultLazyCacheRows, DefaultLazyCacheBytes/(8*max(g.N(), 1))))
	}
	if cacheRows < 2 {
		cacheRows = 2
	}
	return &LazyOracle{
		g:        g,
		capacity: cacheRows,
		rows:     make(map[rowKey]*rowEntry),
		gen:      g.Generation(),
	}
}

// AllPairs returns g's distance oracle under the default row budget.
// When the budget holds all 2n rows (n ≲ 1,450 at
// DefaultLazyCacheBytes), it computes them all up front on GOMAXPROCS
// workers, so a build that reads each row anchored at each node finds
// it resident: the n forward rows by search, then each reverse row
// d(·,v) as column v of the forward rows — O(n) a row instead of a
// search. Above the budget, rows come on demand.
func AllPairs(g *Graph) *LazyOracle {
	o := NewLazyOracle(g, 0)
	n := g.N()
	if o.capacity < 2*n {
		return o
	}
	fwd := make([][]Dist, n)
	_ = parallel.ForEach(n, 0, func(u int) error { // fn never fails
		fwd[u] = o.FromSource(NodeID(u))
		return nil
	})
	rev := make([]*rowEntry, n)
	_ = parallel.ForEach(n, 0, func(v int) error {
		e := &rowEntry{key: rowKey{node: NodeID(v), rev: true}, ready: make(chan struct{}), gen: o.gen, dist: make([]Dist, n)}
		for u := range e.dist {
			e.dist[u] = fwd[u][v]
		}
		close(e.ready)
		rev[v] = e
		return nil
	})
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, e := range rev {
		e.elem = o.lru.PushFront(e)
		o.rows[e.key] = e
	}
	o.stats.Misses += uint64(n)
	o.stats.PeakRows = max(o.stats.PeakRows, o.lru.Len())
	return o
}

// N implements DistanceOracle.
func (o *LazyOracle) N() int { return o.g.N() }

// Stats returns a snapshot of cache counters.
func (o *LazyOracle) Stats() LazyStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stats
}

// RowStats returns o's counters if it is a LazyOracle, and zeros for
// any other implementation. Callers difference two
// readings to count the searches (Misses) and row updates a pass ran.
func RowStats(o DistanceOracle) LazyStats {
	if l, ok := o.(*LazyOracle); ok {
		return l.Stats()
	}
	return LazyStats{}
}

// row returns the requested row's entry at the graph's current
// generation, computing it at most once per residency and generation.
// The double-checked entry protocol: under the lock we either find a
// current entry (hit — possibly still being computed by another
// goroutine) or insert a placeholder and become its computer; the
// search or update itself runs outside the lock. A stale resident entry
// is replaced by the placeholder and becomes the version it is updated
// from.
func (o *LazyOracle) row(key rowKey) *rowEntry {
	o.mu.Lock()
	if gen := o.g.Generation(); gen != o.gen {
		// Rows the weight log cannot carry forward are stale: drop the
		// whole cache. In-flight entries are unlinked too (their
		// computation finishes and feeds earlier waiters, but no later
		// request can hit them).
		if o.g.wlogFrom > o.gen {
			if o.lru.Len() > 0 {
				o.stats.Invalidations++
			}
			o.rows = make(map[rowKey]*rowEntry)
			o.lru.Init()
		}
		o.gen, o.deltas = gen, nil
	}
	prev, ok := o.rows[key]
	if ok && prev.gen == o.gen {
		o.lru.MoveToFront(prev.elem)
		o.stats.Hits++
		o.mu.Unlock()
		<-prev.ready
		return prev
	}
	var changes []weightChange
	if ok {
		o.lru.Remove(prev.elem)
		if changes, ok = o.delta(prev.gen); !ok {
			prev = nil
		}
	}
	if prev != nil {
		o.stats.Updates++
	} else {
		o.stats.Misses++
	}
	e := &rowEntry{key: key, ready: make(chan struct{}), gen: o.gen}
	e.elem = o.lru.PushFront(e)
	o.rows[key] = e
	// Evict from the cold end, skipping rows whose computation is still
	// in flight: evicting those would break single-flight dedup (a
	// re-request would start a duplicate Dijkstra) and hide their memory
	// from PeakRows. Under contention the cache may therefore briefly
	// hold capacity + in-flight rows; PeakRows reports that honestly.
	for el := o.lru.Back(); el != nil && o.lru.Len() > o.capacity; {
		victim, warmer := el.Value.(*rowEntry), el.Prev()
		if victim != e && victim.computed() {
			o.lru.Remove(el)
			delete(o.rows, victim.key)
			o.stats.Evictions++
		}
		el = warmer
	}
	if o.lru.Len() > o.stats.PeakRows {
		o.stats.PeakRows = o.lru.Len()
	}
	o.mu.Unlock()

	// Pooled scratch: the only allocation a row fill retains is the
	// row itself.
	s := getScratch()
	updated := false
	if prev != nil {
		<-prev.ready
		if e.dist, updated = s.updateRow(o.g, key.rev, prev.dist, changes); !updated {
			// A path over a down edge: the update does not cover this
			// row, so it costs a search after all.
			o.mu.Lock()
			o.stats.Updates--
			o.stats.Misses++
			o.mu.Unlock()
		}
	}
	switch {
	case updated:
	case key.rev:
		e.dist = append([]Dist(nil), s.DijkstraRev(o.g, key.node).Dist...)
	default:
		e.dist = append([]Dist(nil), s.Dijkstra(o.g, key.node).Dist...)
	}
	putScratch(s)
	close(e.ready)
	return e
}

// delta returns the net reweightings since generation from, computed
// once per generation pair; ok is false when the graph's log cannot
// replay them. Called with o.mu held.
func (o *LazyOracle) delta(from uint64) (changes []weightChange, ok bool) {
	if changes, ok = o.deltas[from]; ok {
		return changes, true
	}
	if changes, ok = o.g.weightChangesSince(from); !ok {
		return nil, false
	}
	if o.deltas == nil {
		o.deltas = make(map[uint64][]weightChange)
	}
	o.deltas[from] = changes
	return changes, true
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

package graph

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// checkRowsFresh reads every row of o — all resident under the default
// budget — and fails unless each forward row and each reverse row equal
// a fresh Dijkstra / DijkstraRev, and the next hop NextHop derives from
// each reverse row toward y equals DijkstraRev(y)'s parent, for every
// (x, y).
func checkRowsFresh(t testing.TB, g *Graph, o *LazyOracle, what string) {
	t.Helper()
	for v := NodeID(0); v < NodeID(g.N()); v++ {
		if got, want := o.FromSource(v), Dijkstra(g, v).Dist; !slices.Equal(got, want) {
			t.Fatalf("%s: FromSource(%d) = %v, fresh %v", what, v, got, want)
		}
		got, want := o.ToSink(v), DijkstraRev(g, v)
		if !slices.Equal(got, want.Dist) {
			t.Fatalf("%s: ToSink(%d) = %v, fresh %v", what, v, got, want.Dist)
		}
		if next := nextHops(g, got); !slices.Equal(next, want.Parent) {
			t.Fatalf("%s: next hops toward %d = %v, fresh parents %v", what, v, next, want.Parent)
		}
	}
}

// nextHops is NextHop from every node toward the sink of the reverse
// row toY.
func nextHops(g *Graph, toY []Dist) []NodeID {
	next := make([]NodeID, g.N())
	for x := range next {
		next[x] = NextHop(g, toY, NodeID(x))
	}
	return next
}

// reweightBatch applies one batch of reweightings drawn from rng to a
// graph with weights in [1,3]: random edges to random weights, DownWeight
// toggles, or every in- and out-edge of one node at once (a node flap).
// At most two edges are down at a time, so no path sum overflows.
func reweightBatch(t testing.TB, g *Graph, rng *rand.Rand) {
	t.Helper()
	set := func(u, v NodeID, w Dist) {
		if err := g.SetEdgeWeight(u, v, w); err != nil {
			t.Fatal(err)
		}
	}
	n := g.N()
	down := 0
	for u := NodeID(0); u < NodeID(n); u++ {
		for _, e := range g.Out(u) {
			if e.Weight == DownWeight {
				down++
			}
		}
	}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		u := NodeID(rng.Intn(n))
		switch rng.Intn(4) {
		case 0, 1:
			e := g.Out(u)[rng.Intn(g.OutDegree(u))]
			set(u, e.To, 1+Dist(rng.Intn(3)))
		case 2:
			e := g.Out(u)[rng.Intn(g.OutDegree(u))]
			switch {
			case e.Weight == DownWeight:
				set(u, e.To, 1+Dist(rng.Intn(3)))
				down--
			case down < 2:
				set(u, e.To, DownWeight)
				down++
			}
		default:
			w := 1 + Dist(rng.Intn(3))
			for _, e := range slices.Clone(g.Out(u)) {
				set(u, e.To, w)
			}
			for _, e := range slices.Clone(g.In(u)) {
				set(e.From, u, w)
			}
		}
	}
}

// TestLazyRowUpdate is the row-identity table: after each batch of
// reweightings every resident row, re-derived from its previous version,
// equals a fresh search — distances, and the next hops NextHop derives
// from a reverse row equal the search's parents. A row whose paths cross a down edge costs a search; on
// reweights that keep the live graph strongly connected no row does. A
// mutation the weight log cannot replay flushes the cache instead.
func TestLazyRowUpdate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		seed  int64
		n, m  int
		batch func(t *testing.T, g *Graph, rng *rand.Rand)
		// flush: the batch leaves rows the log cannot carry forward;
		// live: no distance reaches DownWeight, so no row is searched.
		flush, live bool
	}{
		{name: "live", seed: 9, n: 32, m: 96, live: true, batch: func(t *testing.T, g *Graph, rng *rand.Rand) {
			u := NodeID(rng.Intn(g.N()))
			e := g.Out(u)[rng.Intn(g.OutDegree(u))]
			if err := g.SetEdgeWeight(u, e.To, 1+Dist(rng.Intn(3))); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "reweight", seed: 1, n: 24, m: 60, batch: func(t *testing.T, g *Graph, rng *rand.Rand) { reweightBatch(t, g, rng) }},
		{name: "dense-ties", seed: 2, n: 40, m: 200, batch: func(t *testing.T, g *Graph, rng *rand.Rand) { reweightBatch(t, g, rng) }},
		{name: "sparse", seed: 3, n: 48, m: 10, batch: func(t *testing.T, g *Graph, rng *rand.Rand) { reweightBatch(t, g, rng) }},
		{name: "no-op", seed: 4, n: 20, m: 40, live: true, batch: func(t *testing.T, g *Graph, rng *rand.Rand) {
			e := g.Out(3)[0]
			for _, w := range []Dist{e.Weight + 1, DownWeight, e.Weight} {
				if err := g.SetEdgeWeight(3, e.To, w); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{name: "add-edge", seed: 5, n: 20, m: 40, flush: true, batch: func(t *testing.T, g *Graph, rng *rand.Rand) {
			reweightBatch(t, g, rng)
			for u := NodeID(0); ; u++ {
				if v := (u + 7) % NodeID(g.N()); !g.HasEdge(u, v) {
					g.MustAddEdge(u, v, 2)
					return
				}
			}
		}},
		{name: "truncated-log", seed: 6, n: 20, m: 40, flush: true, batch: func(t *testing.T, g *Graph, rng *rand.Rand) {
			for i := 0; i <= weightLogCap; i++ {
				e := g.Out(0)[0]
				if err := g.SetEdgeWeight(0, e.To, 1+e.Weight%3); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			g := RandomSC(tc.n, tc.m, 3, rng)
			o := NewLazyOracle(g, 0)
			checkRowsFresh(t, g, o, "build")
			for b := 0; b < 12; b++ {
				before, gen := o.Stats(), g.Generation()
				tc.batch(t, g, rng)
				checkRowsFresh(t, g, o, tc.name)
				st := o.Stats()
				searches, flushes := st.Misses-before.Misses, st.Invalidations-before.Invalidations
				switch {
				case g.Generation() == gen:
					if st.Hits-before.Hits != uint64(2*tc.n) {
						t.Fatalf("batch %d left the graph as it was, yet rows were recomputed: %+v", b, st)
					}
				case tc.flush && (flushes != 1 || searches != uint64(2*tc.n)):
					t.Fatalf("batch %d: %d flushes and %d searches, want the cache flushed and all %d rows recomputed", b, flushes, searches, 2*tc.n)
				case !tc.flush && (flushes != 0 || searches+st.Updates-before.Updates != uint64(2*tc.n) || tc.live && searches != 0):
					t.Fatalf("batch %d: %d flushes, %d searches and %d updates, want every one of %d rows re-derived in place",
						b, flushes, searches, st.Updates-before.Updates, 2*tc.n)
				}
			}
			if !tc.flush && o.Stats().Updates == 0 {
				t.Fatalf("no row was ever updated in place: %+v", o.Stats())
			}
		})
	}
}

// TestTieRuleMatchesDijkstra checks the rule NextHop derives parents
// by against the searches themselves, where ties are everywhere: a
// reverse row's Parent[v] is the out-neighbor u on a tight edge
// minimizing (d(u), u), a forward row's the mirror in-neighbor. The
// restricted searches keep the rule too: a neighbor outside the member
// set is at Inf, so no arc from it is tight.
func TestTieRuleMatchesDijkstra(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(28)
		g := RandomSC(n, rng.Intn(n*(n-2)/2), 3, rng)
		root := NodeID(rng.Intn(n))
		inSet := make([]bool, n)
		for v := range inSet {
			inSet[v] = rng.Intn(3) > 0
		}
		for _, run := range []struct {
			name     string
			fwd, rev SSSP
		}{
			{"full", Dijkstra(g, root), DijkstraRev(g, root)},
			{"restricted", DijkstraRestricted(g, root, inSet), DijkstraRevRestricted(g, root, inSet)},
		} {
			for v := NodeID(0); v < NodeID(n); v++ {
				if got := tieParent(g.In(v), run.fwd.Dist, v); got != run.fwd.Parent[v] {
					t.Fatalf("seed %d %s: forward parent of %d: rule %d, search %d", seed, run.name, v, got, run.fwd.Parent[v])
				}
				if got := tieParent(g.Out(v), run.rev.Dist, v); got != run.rev.Parent[v] {
					t.Fatalf("seed %d %s: reverse parent of %d: rule %d, search %d", seed, run.name, v, got, run.rev.Parent[v])
				}
			}
		}
	}
}

// TestLazyRowUpdateConcurrent re-derives rows from many goroutines at
// once after each batch; under -race it is the update path's
// concurrency test (single flight per row and generation, read-only
// rows handed out).
func TestLazyRowUpdateConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := RandomSC(40, 160, 3, rng)
	o := NewLazyOracle(g, 0)
	checkRowsFresh(t, g, o, "build")
	for b := 0; b < 6; b++ {
		reweightBatch(t, g, rng)
		want := make([]SSSP, g.N())
		for v := range want {
			want[v] = DijkstraRev(g, NodeID(v))
		}
		var wg sync.WaitGroup
		errs := make(chan NodeID, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for i := 0; i < 200; i++ {
					v := NodeID(r.Intn(g.N()))
					got := o.ToSink(v)
					if !slices.Equal(got, want[v].Dist) || !slices.Equal(nextHops(g, got), want[v].Parent) {
						errs <- v
						return
					}
				}
			}(int64(100*b + w))
		}
		wg.Wait()
		close(errs)
		for v := range errs {
			t.Fatalf("batch %d: concurrent ToSink(%d) or its next hops differ from a fresh search", b, v)
		}
	}
}

// FuzzLazyRowUpdate drives arbitrary reweighting batches through a
// resident oracle: after every batch each row must equal a fresh search,
// and the next hop derived from each reverse row DijkstraRev's parent
// for every (x, y).
func FuzzLazyRowUpdate(f *testing.F) {
	f.Add(int64(1), uint8(16), []byte{0, 1, 2, 3})
	f.Add(int64(7), uint8(30), []byte{9, 200, 17, 4, 4, 4})
	f.Fuzz(func(t *testing.T, seed int64, size uint8, batches []byte) {
		n := 4 + int(size)%28
		rng := rand.New(rand.NewSource(seed))
		g := RandomSC(n, int(size)%(n*(n-2)/2), 3, rng)
		o := NewLazyOracle(g, 0)
		checkRowsFresh(t, g, o, "build")
		for i, b := range batches {
			if i == 8 {
				break
			}
			reweightBatch(t, g, rand.New(rand.NewSource(seed^int64(b)<<8^int64(i))))
			checkRowsFresh(t, g, o, "batch")
		}
	})
}

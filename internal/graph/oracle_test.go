package graph

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// bruteForce is the reference the oracle is checked against: n forward
// and n reverse Dijkstras, each run on its own, held as full matrices.
type bruteForce struct {
	fwd, rev [][]Dist   // fwd[u][v] = d(u,v); rev[v][u] = d(u,v)
	next     [][]NodeID // next[v][u] = u's next hop toward v
}

func newBruteForce(g *Graph) *bruteForce {
	b := &bruteForce{}
	for u := 0; u < g.N(); u++ {
		r := DijkstraRev(g, NodeID(u))
		b.fwd = append(b.fwd, Dijkstra(g, NodeID(u)).Dist)
		b.rev = append(b.rev, r.Dist)
		b.next = append(b.next, r.Parent)
	}
	return b
}

func (b *bruteForce) D(u, v NodeID) Dist { return b.fwd[u][v] }

func (b *bruteForce) R(u, v NodeID) Dist {
	if b.fwd[u][v] >= Inf || b.fwd[v][u] >= Inf {
		return Inf
	}
	return b.fwd[u][v] + b.fwd[v][u]
}

// rtDiam returns the roundtrip diameter by scanning every pair.
func (b *bruteForce) rtDiam() (rtDiam Dist) {
	for u := range b.fwd {
		for v := range b.fwd[u] {
			rtDiam = max(rtDiam, b.R(NodeID(u), NodeID(v)))
		}
	}
	return rtDiam
}

// checkRows compares every row of o, forward and reverse, against the
// reference, and the next hop NextHop derives from each reverse row
// against the reverse search's parent.
func checkRows(t *testing.T, what string, o *LazyOracle, ref *bruteForce) {
	t.Helper()
	if o.N() != len(ref.fwd) {
		t.Fatalf("%s: N = %d, want %d", what, o.N(), len(ref.fwd))
	}
	for u := 0; u < o.N(); u++ {
		fwd, rev := o.FromSource(NodeID(u)), o.ToSink(NodeID(u))
		for v := 0; v < o.N(); v++ {
			if fwd[v] != ref.fwd[u][v] {
				t.Fatalf("%s: FromSource(%d)[%d] = %d, want %d", what, u, v, fwd[v], ref.fwd[u][v])
			}
			if rev[v] != ref.fwd[v][u] {
				t.Fatalf("%s: ToSink(%d)[%d] = %d, want %d", what, u, v, rev[v], ref.fwd[v][u])
			}
			if next := NextHop(o.g, rev, NodeID(v)); next != ref.next[u][v] {
				t.Fatalf("%s: NextHop toward %d from %d = %d, want %d", what, u, v, next, ref.next[u][v])
			}
		}
	}
}

// TestOracleMatchesBruteForce is the oracle-equivalence property test:
// on seeded random strongly connected digraphs, every row, D/R point
// query and diameter of AllPairs' oracle and of oracles with 2, 4 and 8
// rows (constant eviction) equals the brute-force reference.
func TestOracleMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		seed     int64
		n, extra int
		maxW     Dist
	}{
		{seed: 1, n: 24, extra: 60, maxW: 8},
		{seed: 2, n: 40, extra: 100, maxW: 16},
		{seed: 3, n: 64, extra: 300, maxW: 1}, // ties everywhere
		{seed: 4, n: 33, extra: 50, maxW: 31},
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		g := RandomSC(tc.n, tc.extra, tc.maxW, rng)
		g.AssignPorts(rng.Intn)
		ref := newBruteForce(g)
		for v := range ref.rev {
			for u, d := range ref.rev[v] {
				if d != ref.fwd[u][v] {
					t.Fatalf("seed %d: reverse search d(%d,%d) = %d, forward %d", tc.seed, u, v, d, ref.fwd[u][v])
				}
			}
		}
		rtDiam := ref.rtDiam()
		for _, rows := range []int{0, 2, 4, 8} {
			o := AllPairs(g)
			if rows > 0 {
				o = NewLazyOracle(g, rows)
			}
			what := fmt.Sprintf("seed %d, %d rows", tc.seed, o.capacity)
			checkRows(t, what, o, ref)
			// Scattered point queries after the row sweep (cache now
			// cold for most rows on the small budgets).
			for i := 0; i < 500; i++ {
				u, v := NodeID(rng.Intn(tc.n)), NodeID(rng.Intn(tc.n))
				if got, want := o.FromSource(u)[v], ref.D(u, v); got != want {
					t.Fatalf("%s: D(%d,%d) = %d, want %d", what, u, v, got, want)
				}
				if got, want := o.R(u, v), ref.R(u, v); got != want {
					t.Fatalf("%s: R(%d,%d) = %d, want %d", what, u, v, got, want)
				}
			}
			if got := RTDiamOf(o); got != rtDiam {
				t.Fatalf("%s: RTDiamOf = %d, want %d", what, got, rtDiam)
			}
			st := o.Stats()
			if st.PeakRows > o.capacity {
				t.Fatalf("%s: peak %d rows exceeds capacity", what, st.PeakRows)
			}
			if rows > 0 && st.Evictions == 0 {
				t.Fatalf("%s: expected evictions", what)
			}
		}
	}
}

// TestLazyOracleUnreachable checks Inf handling on a graph that is not
// strongly connected: R must be Inf whenever either direction is.
func TestLazyOracleUnreachable(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 5) // 1 cannot reach anyone; 2 is isolated
	lazy := NewLazyOracle(g, 0)
	ref := newBruteForce(g)
	for u := 0; u < 3; u++ {
		for v := 0; v < 3; v++ {
			if got, want := lazy.FromSource(NodeID(u))[NodeID(v)], ref.D(NodeID(u), NodeID(v)); got != want {
				t.Fatalf("D(%d,%d) = %d, want %d", u, v, got, want)
			}
			if got, want := lazy.R(NodeID(u), NodeID(v)), ref.R(NodeID(u), NodeID(v)); got != want {
				t.Fatalf("R(%d,%d) = %d, want %d", u, v, got, want)
			}
		}
	}
	if lazy.R(0, 1) != Inf {
		t.Fatal("roundtrip through a one-way edge must be Inf")
	}
	checkRows(t, "AllPairs", AllPairs(g), ref) // reverse rows from Inf columns
}

// TestLazyOracleConcurrent hammers one lazy oracle from many goroutines
// with a cache far smaller than the working set, so hits, misses,
// evictions and in-flight sharing all interleave. Run with -race this is
// the cache's concurrency test; in any mode it checks answers stay equal
// to the reference under contention.
func TestLazyOracleConcurrent(t *testing.T) {
	const n = 48
	rng := rand.New(rand.NewSource(11))
	g := RandomSC(n, 4*n, 8, rng)
	ref := newBruteForce(g)
	lazy := NewLazyOracle(g, 6)

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				u := NodeID(r.Intn(n))
				v := NodeID(r.Intn(n))
				switch i % 4 {
				case 0:
					if got, want := lazy.FromSource(u)[v], ref.D(u, v); got != want {
						errs <- "D mismatch under concurrency"
						return
					}
				case 1:
					if got, want := lazy.R(u, v), ref.R(u, v); got != want {
						errs <- "R mismatch under concurrency"
						return
					}
				case 2:
					row := lazy.FromSource(u)
					if row[v] != ref.D(u, v) {
						errs <- "FromSource mismatch under concurrency"
						return
					}
				default:
					row := lazy.ToSink(u)
					if row[v] != ref.D(v, u) {
						errs <- "ToSink mismatch under concurrency"
						return
					}
				}
			}
		}(int64(100 + w))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	// In-flight rows are never evicted, so under contention the peak may
	// exceed the capacity — but only by the number of concurrent
	// computations.
	if st := lazy.Stats(); st.PeakRows > lazy.capacity+workers {
		t.Fatalf("peak rows %d exceeded capacity %d + %d in-flight under concurrency",
			st.PeakRows, lazy.capacity, workers)
	}
}

// TestRTDiamOf checks the roundtrip diameter against the reference on a
// three-row oracle, where every row it reads is fetched again, and on a
// ring whose diameter is known.
func TestRTDiamOf(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := RandomSC(30, 90, 7, rng)
	rtDiam := newBruteForce(g).rtDiam()
	lazy := NewLazyOracle(g, 3)
	if got := RTDiamOf(lazy); got != rtDiam {
		t.Fatalf("RTDiamOf = %d, want %d", got, rtDiam)
	}
	const n = 12
	ring := AllPairs(Ring(n, nil))
	if got := RTDiamOf(ring); got != n {
		t.Fatalf("ring RTDiamOf = %d, want %d", got, n)
	}
}

// TestAllPairsDefaultMatchesSequential locks in the up-front fill: under
// the default budget AllPairs computes each of the 2n rows once, on
// GOMAXPROCS workers, and every row equals the one-at-a-time reference
// with no further search. Above the budget it computes none.
func TestAllPairsDefaultMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := RandomSC(50, 200, 9, rng)
	o := AllPairs(g)
	n := uint64(g.N())
	if st := o.Stats(); st.Misses != 2*n || st.PeakRows != int(2*n) || st.Hits != 0 {
		t.Fatalf("after AllPairs: %+v, want %d misses, peak %d, no hits", st, 2*n, 2*n)
	}
	checkRows(t, "AllPairs", o, newBruteForce(g))
	if st := o.Stats(); st.Misses != 2*n || st.Evictions != 0 {
		t.Fatalf("reading every row searched again: %+v", st)
	}

	const big = 1500 // 2n rows exceed DefaultLazyCacheBytes
	ring := AllPairs(Ring(big, nil))
	if ring.capacity >= 2*big {
		t.Fatalf("capacity %d holds all %d rows; the ring no longer exceeds the budget", ring.capacity, 2*big)
	}
	if st := ring.Stats(); st.Misses != 0 || st.PeakRows != 0 {
		t.Fatalf("AllPairs above the budget computed rows up front: %+v", st)
	}
}

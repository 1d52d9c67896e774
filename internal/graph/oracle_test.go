package graph

import (
	"math/rand"
	"sync"
	"testing"
)

// TestLazyOracleMatchesDense is the oracle-equivalence property test:
// on seeded random strongly connected digraphs, every D/R/FromSource/
// ToSink answer of the lazy oracle must equal the dense matrix, including
// under a cache small enough to force constant eviction.
func TestLazyOracleMatchesDense(t *testing.T) {
	for _, tc := range []struct {
		seed      int64
		n, extra  int
		maxW      Dist
		cacheRows int
	}{
		{seed: 1, n: 24, extra: 60, maxW: 8, cacheRows: 0},
		{seed: 2, n: 40, extra: 100, maxW: 16, cacheRows: 4}, // tiny cache: evict constantly
		{seed: 3, n: 64, extra: 300, maxW: 1, cacheRows: 2},  // minimum cache
		{seed: 4, n: 33, extra: 50, maxW: 31, cacheRows: 8},
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		g := RandomSC(tc.n, tc.extra, tc.maxW, rng)
		g.AssignPorts(rng.Intn)
		dense := AllPairs(g)
		lazy := NewLazyOracle(g, tc.cacheRows)

		if lazy.N() != dense.N() {
			t.Fatalf("seed %d: N mismatch lazy=%d dense=%d", tc.seed, lazy.N(), dense.N())
		}
		for u := 0; u < tc.n; u++ {
			fwd := lazy.FromSource(NodeID(u))
			rev := lazy.ToSink(NodeID(u))
			for v := 0; v < tc.n; v++ {
				if want := dense.D(NodeID(u), NodeID(v)); fwd[v] != want {
					t.Fatalf("seed %d: FromSource(%d)[%d] = %d, dense %d", tc.seed, u, v, fwd[v], want)
				}
				if want := dense.D(NodeID(v), NodeID(u)); rev[v] != want {
					t.Fatalf("seed %d: ToSink(%d)[%d] = %d, dense %d", tc.seed, u, v, rev[v], want)
				}
			}
		}
		// Scattered point queries after the row sweep (cache now cold for
		// most rows).
		for i := 0; i < 500; i++ {
			u := NodeID(rng.Intn(tc.n))
			v := NodeID(rng.Intn(tc.n))
			if got, want := lazy.D(u, v), dense.D(u, v); got != want {
				t.Fatalf("seed %d: lazy.D(%d,%d) = %d, dense %d", tc.seed, u, v, got, want)
			}
			if got, want := lazy.R(u, v), dense.R(u, v); got != want {
				t.Fatalf("seed %d: lazy.R(%d,%d) = %d, dense %d", tc.seed, u, v, got, want)
			}
		}
		st := lazy.Stats()
		if st.PeakRows > lazy.Capacity() {
			t.Fatalf("seed %d: peak %d rows exceeds capacity %d", tc.seed, st.PeakRows, lazy.Capacity())
		}
		if tc.cacheRows > 0 && tc.cacheRows < 2*tc.n && st.Evictions == 0 {
			t.Fatalf("seed %d: expected evictions with cache %d over %d nodes", tc.seed, tc.cacheRows, tc.n)
		}
	}
}

// TestLazyOracleUnreachable checks Inf handling on a graph that is not
// strongly connected: R must be Inf whenever either direction is.
func TestLazyOracleUnreachable(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 5) // 1 cannot reach anyone; 2 is isolated
	lazy := NewLazyOracle(g, 0)
	dense := AllPairs(g)
	for u := 0; u < 3; u++ {
		for v := 0; v < 3; v++ {
			if got, want := lazy.D(NodeID(u), NodeID(v)), dense.D(NodeID(u), NodeID(v)); got != want {
				t.Fatalf("D(%d,%d) = %d, want %d", u, v, got, want)
			}
			if got, want := lazy.R(NodeID(u), NodeID(v)), dense.R(NodeID(u), NodeID(v)); got != want {
				t.Fatalf("R(%d,%d) = %d, want %d", u, v, got, want)
			}
		}
	}
	if lazy.R(0, 1) != Inf {
		t.Fatal("roundtrip through a one-way edge must be Inf")
	}
}

// TestLazyOracleConcurrent hammers one lazy oracle from many goroutines
// with a cache far smaller than the working set, so hits, misses,
// evictions and in-flight sharing all interleave. Run with -race this is
// the cache's concurrency test; in any mode it checks answers stay equal
// to the dense matrix under contention.
func TestLazyOracleConcurrent(t *testing.T) {
	const n = 48
	rng := rand.New(rand.NewSource(11))
	g := RandomSC(n, 4*n, 8, rng)
	dense := AllPairs(g)
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
					if got, want := lazy.D(u, v), dense.D(u, v); got != want {
						errs <- "D mismatch under concurrency"
						return
					}
				case 1:
					if got, want := lazy.R(u, v), dense.R(u, v); got != want {
						errs <- "R mismatch under concurrency"
						return
					}
				case 2:
					row := lazy.FromSource(u)
					if row[v] != dense.D(u, v) {
						errs <- "FromSource mismatch under concurrency"
						return
					}
				default:
					row := lazy.ToSink(u)
					if row[v] != dense.D(v, u) {
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
	if st := lazy.Stats(); st.PeakRows > lazy.Capacity()+workers {
		t.Fatalf("peak rows %d exceeded capacity %d + %d in-flight under concurrency",
			st.PeakRows, lazy.Capacity(), workers)
	}
}

// TestRTDiamAndDiamOf checks the oracle-generic diameter helpers agree
// with the dense methods on both implementations.
func TestRTDiamAndDiamOf(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := RandomSC(30, 90, 7, rng)
	dense := AllPairs(g)
	lazy := NewLazyOracle(g, 3)
	if got, want := RTDiamOf(lazy), dense.RTDiam(); got != want {
		t.Fatalf("RTDiamOf(lazy) = %d, dense RTDiam %d", got, want)
	}
	if got, want := RTDiamOf(dense), dense.RTDiam(); got != want {
		t.Fatalf("RTDiamOf(dense) = %d, RTDiam %d", got, want)
	}
	if got, want := DiamOf(lazy), dense.Diam(); got != want {
		t.Fatalf("DiamOf(lazy) = %d, dense Diam %d", got, want)
	}
}

// TestAllPairsDefaultMatchesSequential locks in that the default
// GOMAXPROCS-worker dense build is bit-identical to the one-worker one.
func TestAllPairsDefaultMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := RandomSC(50, 200, 9, rng)
	seq := AllPairsParallel(g, 1)
	par := AllPairs(g)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if seq.D(NodeID(u), NodeID(v)) != par.D(NodeID(u), NodeID(v)) {
				t.Fatalf("parallel all-pairs differs at (%d,%d)", u, v)
			}
		}
	}
}

package core

import (
	"math/rand"
	"os"
	"runtime"
	"syscall"
	"testing"
	"time"

	"rtroute/internal/graph"
	"rtroute/internal/names"
)

// TestBuildCliff is the build-cliff probe (make cliff): StretchSix, then
// ExStretch at k = 2, on RandomSC(n, 4n, 8) at n = 1,024, 2,048 and
// 4,096 over the default oracle budget, which holds every row up front
// only at the first size. Per size it logs the up-front fill and each
// build's wall seconds, the live heap after a GC with both schemes
// held, the process's peak RSS so far, the oracle's row misses and
// evictions, and the ExStretch claim walks that ran past the kept
// N_{k-1} prefix. It checks only that the builds succeed.
func TestBuildCliff(t *testing.T) {
	if os.Getenv("RTROUTE_LARGE") == "" {
		t.Skip("set RTROUTE_LARGE=1 (make cliff)")
	}
	for _, n := range []int{1024, 2048, 4096} {
		rng := rand.New(rand.NewSource(1))
		g := graph.RandomSC(n, 4*n, 8, rng)
		perm := names.Random(n, rng)
		t0 := time.Now()
		m := graph.AllPairs(g)
		fill := time.Since(t0)
		t0 = time.Now()
		s6, err := NewStretchSix(g, m, perm, rand.New(rand.NewSource(2)), Stretch6Config{})
		if err != nil {
			t.Fatal(err)
		}
		s6Wall := time.Since(t0)
		t0 = time.Now()
		ex, err := NewExStretch(g, m, perm, rand.New(rand.NewSource(2)), ExStretchConfig{K: 2})
		if err != nil {
			t.Fatal(err)
		}
		exWall := time.Since(t0)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
		st := m.Stats()
		t.Logf("n=%5d  fill %.2f s  stretch6 %.2f s  exstretch %.2f s  live heap %.1f MiB  peak RSS %.1f MiB  oracle misses %d evictions %d  claim fallbacks %d",
			n, fill.Seconds(), s6Wall.Seconds(), exWall.Seconds(), float64(ms.HeapAlloc)/(1<<20), float64(ru.Maxrss)/1024, st.Misses, st.Evictions, ex.claimFallbacks)
		runtime.KeepAlive(s6)
		runtime.KeepAlive(ex)
	}
}

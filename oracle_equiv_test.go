package rtroute

import (
	"math/rand"
	"os"
	"strings"
	"testing"

	"rtroute/internal/graph"
)

// buildPair constructs the same scheme twice over one graph and naming:
// once on the default System, every row resident, once on a deliberately
// tiny eight-row oracle that evicts constantly. Construction consumes
// randomness identically in both cases, so any divergence in tables —
// and therefore in routes — must come from a distance disagreement
// between the two.
func buildPair(t *testing.T, g *Graph, naming *Naming, build func(sys *System) (Scheme, error)) (Scheme, Scheme) {
	t.Helper()
	def, err := NewSystem(g, naming)
	if err != nil {
		t.Fatal(err)
	}
	lazy := *def
	lazy.Metric = NewLazyOracle(g, 8)
	ds, err := build(def)
	if err != nil {
		t.Fatalf("default build: %v", err)
	}
	ls, err := build(&lazy)
	if err != nil {
		t.Fatalf("8-row build: %v", err)
	}
	return ds, ls
}

func samePath(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSchemesIdenticalUnderLazyOracle: all three schemes must produce
// node-for-node identical roundtrip routes (hence identical stretch)
// whether built with every row resident or under constant eviction.
func TestSchemesIdenticalUnderLazyOracle(t *testing.T) {
	const n = 27
	for _, seed := range []int64{3, 17} {
		rng := rand.New(rand.NewSource(seed))
		g := RandomSC(n, 4*n, 8, rng)
		g.AssignPorts(rng.Intn)
		naming := RandomNaming(n, rng)

		for _, sc := range []struct {
			name  string
			build func(sys *System) (Scheme, error)
		}{
			{"stretch6", func(sys *System) (Scheme, error) { return sys.Build(StretchSix, WithSeed(seed)) }},
			{"exstretch k=2", func(sys *System) (Scheme, error) { return sys.Build(ExStretch, WithK(2), WithSeed(seed)) }},
			{"polystretch k=2", func(sys *System) (Scheme, error) { return sys.Build(Polynomial, WithK(2)) }},
		} {
			ds, ls := buildPair(t, g, naming, sc.build)
			if dw, lw := ds.MaxTableWords(), ls.MaxTableWords(); dw != lw {
				t.Fatalf("seed %d %s: table words diverge default=%d 8-row=%d", seed, sc.name, dw, lw)
			}
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if u == v {
						continue
					}
					srcName := naming.Name(int32(u))
					dstName := naming.Name(int32(v))
					dt, err := ds.Roundtrip(srcName, dstName)
					if err != nil {
						t.Fatalf("seed %d %s default (%d,%d): %v", seed, sc.name, u, v, err)
					}
					lt, err := ls.Roundtrip(srcName, dstName)
					if err != nil {
						t.Fatalf("seed %d %s 8-row (%d,%d): %v", seed, sc.name, u, v, err)
					}
					if !samePath(dt.Out.Path, lt.Out.Path) || !samePath(dt.Back.Path, lt.Back.Path) {
						t.Fatalf("seed %d %s (%d,%d): routes diverge\ndefault out %v back %v\n8-row   out %v back %v",
							seed, sc.name, u, v, dt.Out.Path, dt.Back.Path, lt.Out.Path, lt.Back.Path)
					}
					if dt.Weight() != lt.Weight() {
						t.Fatalf("seed %d %s (%d,%d): weights diverge %d vs %d",
							seed, sc.name, u, v, dt.Weight(), lt.Weight())
					}
				}
			}
		}
	}
}

// TestSystemLazyMetricQueries checks the facade's R/D answers agree
// between the default System and one on a four-row oracle (they feed
// every measured stretch figure).
func TestSystemLazyMetricQueries(t *testing.T) {
	const n = 32
	rng := rand.New(rand.NewSource(8))
	g := RandomSC(n, 4*n, 6, rng)
	naming := RandomNaming(n, rng)
	def, err := NewSystem(g, naming)
	if err != nil {
		t.Fatal(err)
	}
	lazy := &System{Graph: g, Metric: NewLazyOracle(g, 4), Naming: naming}
	for u := int32(0); u < int32(n); u++ {
		for v := int32(0); v < int32(n); v++ {
			if def.R(u, v) != lazy.R(u, v) || def.D(u, v) != lazy.D(u, v) {
				t.Fatalf("system query diverges at names (%d,%d)", u, v)
			}
		}
	}
}

// TestNewSystemHoldsEveryRow pins the one-oracle contract build_s relies
// on: NewSystem computes each of the 2n rows once, up front, and a
// StretchSix build over it then searches for none.
func TestNewSystemHoldsEveryRow(t *testing.T) {
	const n = 256
	rng := rand.New(rand.NewSource(4))
	sys, err := NewSystem(RandomSC(n, 4*n, 8, rng), RandomNaming(n, rng))
	if err != nil {
		t.Fatal(err)
	}
	st := graph.RowStats(sys.Metric)
	if st.Misses != 2*n || st.PeakRows != 2*n {
		t.Fatalf("after NewSystem: %d misses, peak %d rows; want %d and %d", st.Misses, st.PeakRows, 2*n, 2*n)
	}
	if _, err := sys.Build(StretchSix, WithSeed(5)); err != nil {
		t.Fatal(err)
	}
	if after := graph.RowStats(sys.Metric); after.Misses != st.Misses || after.Evictions != 0 {
		t.Fatalf("StretchSix build searched again: %+v after %+v", after, st)
	}
}

// TestNewSystemWithRefusesOtherOracles: the deprecated SystemConfig.Metric
// accepts "" and MetricLazy, and any other value is an error naming the
// field, never silently ignored.
func TestNewSystemWithRefusesOtherOracles(t *testing.T) {
	g := RandomSC(16, 32, 8, rand.New(rand.NewSource(1)))
	for _, kind := range []MetricKind{"", MetricLazy} {
		if _, err := NewSystemWith(g, nil, SystemConfig{Metric: kind}); err != nil {
			t.Fatalf("Metric %q: %v", kind, err)
		}
	}
	_, err := NewSystemWith(g, nil, SystemConfig{Metric: "dense"})
	if err == nil || !strings.Contains(err.Error(), "SystemConfig.Metric") {
		t.Fatalf("Metric \"dense\": err = %v, want one naming SystemConfig.Metric", err)
	}
}

// TestLazyStretchSixLargeScale is the memory acceptance run: build and
// measure the §2 scheme on a 5,000-node random SC digraph through the
// lazy oracle, and verify the oracle held strictly less distance state
// than the dense n×n matrix would require. The build takes minutes, so
// it runs only when RTROUTE_LARGE is set (see Makefile target `large`);
// TestLazyStretchSixMidScale keeps the same assertions in every full
// `go test` run at n=600.
func TestLazyStretchSixLargeScale(t *testing.T) {
	if os.Getenv("RTROUTE_LARGE") == "" {
		t.Skip("set RTROUTE_LARGE=1 to run the 5,000-node lazy-oracle build")
	}
	lazyStretchSixScaleRun(t, 5000, 40000)
}

func TestLazyStretchSixMidScale(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-scale lazy build skipped in -short")
	}
	lazyStretchSixScaleRun(t, 600, 3000)
}

func lazyStretchSixScaleRun(t *testing.T, n, pairs int) {
	rng := rand.New(rand.NewSource(1))
	g := RandomSC(n, 5*n, 8, rng)
	g.AssignPorts(rng.Intn)
	// A 256-row budget: the default would hold all 2n rows at n = 600,
	// which is the point under churn but not the memory saving this run
	// measures.
	oracle := NewLazyOracle(g, 256)
	sys := &System{Graph: g, Metric: oracle, Naming: RandomNaming(n, rng)}
	sch, err := sys.Build(StretchSix, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := MeasureScheme(sys, sch, pairs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Max > 6 {
		t.Fatalf("stretch-6 bound violated under lazy oracle: %.3f", stats.Max)
	}
	st := oracle.Stats()
	// The oracle's resident distance state is PeakRows rows of n words;
	// the dense matrix is n rows. Strictly less, by an n/PeakRows factor.
	if st.PeakRows >= n {
		t.Fatalf("lazy oracle held %d rows; no saving over the dense %d-row matrix", st.PeakRows, n)
	}
	t.Logf("n=%d: max stretch %.3f mean %.3f; oracle peak %d rows (%.1f MiB) vs dense %d rows (%.1f MiB); %d misses %d hits %d evictions",
		n, stats.Max, stats.Mean,
		st.PeakRows, float64(st.PeakRows)*float64(n)*8/(1<<20),
		n, float64(n)*float64(n)*8/(1<<20),
		st.Misses, st.Hits, st.Evictions)
}

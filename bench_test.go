// Benchmarks regenerating the paper's figure/table set. Each benchmark
// maps to a row of DESIGN.md's experiment index (E1-E11); routing
// benchmarks report measured stretch as a custom metric next to ns/op so
// the paper's numbers and the implementation's cost appear together.
package rtroute

import (
	"fmt"
	"math/rand"
	"testing"

	"rtroute/internal/blocks"
	"rtroute/internal/cover"
	"rtroute/internal/graph"
	"rtroute/internal/rtmetric"
	"rtroute/internal/rtz"
	"rtroute/internal/traffic"
	"rtroute/internal/tree"
)

// benchSystem builds a shared 128-node system for routing benchmarks.
func benchSystem(b *testing.B, seed int64, n int) *System {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := RandomSC(n, 4*n, 8, rng)
	sys, err := NewSystem(g, RandomNaming(n, rng))
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func benchRoundtrips(b *testing.B, sys *System, sch Scheme) {
	b.Helper()
	n := sys.Graph.N()
	rng := rand.New(rand.NewSource(99))
	type pair struct{ s, d int32 }
	pairs := make([]pair, 1024)
	for i := range pairs {
		u, v := rng.Intn(n), rng.Intn(n)
		for u == v {
			v = rng.Intn(n)
		}
		pairs[i] = pair{sys.Naming.Name(int32(u)), sys.Naming.Name(int32(v))}
	}
	var totalStretch float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		tr, err := sch.Roundtrip(p.s, p.d)
		if err != nil {
			b.Fatal(err)
		}
		totalStretch += sys.Stretch(p.s, p.d, tr)
	}
	b.ReportMetric(totalStretch/float64(b.N), "stretch/op")
	b.ReportMetric(float64(sch.MaxTableWords()), "maxTblWords")
}

// BenchmarkFig1RTZBaseline is E1's name-dependent baseline row ([35]).
func BenchmarkFig1RTZBaseline(b *testing.B) {
	sys := benchSystem(b, 1, 128)
	rng := rand.New(rand.NewSource(2))
	sub, err := rtz.New(sys.Graph, sys.Metric, rng, rtz.Config{})
	if err != nil {
		b.Fatal(err)
	}
	n := sys.Graph.N()
	var totalStretch float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := graph.NodeID(i % n)
		v := graph.NodeID((i*7 + 1) % n)
		if u == v {
			v = (v + 1) % graph.NodeID(n)
		}
		w, err := sub.Roundtrip(u, v)
		if err != nil {
			b.Fatal(err)
		}
		totalStretch += float64(w) / float64(sys.Metric.R(u, v))
	}
	b.ReportMetric(totalStretch/float64(b.N), "stretch/op")
	b.ReportMetric(float64(sub.MaxTableWords()), "maxTblWords")
}

// BenchmarkFig1Stretch6Roundtrip is E1/E3: the §2 scheme's routing cost
// and measured stretch (bound 6).
func BenchmarkFig1Stretch6Roundtrip(b *testing.B) {
	sys := benchSystem(b, 3, 128)
	sch, err := sys.Build(StretchSix, WithSeed(4))
	if err != nil {
		b.Fatal(err)
	}
	benchRoundtrips(b, sys, sch)
}

// BenchmarkFig1ExStretchK2Roundtrip and K3 are E1/E4 rows (§3 scheme).
func BenchmarkFig1ExStretchK2Roundtrip(b *testing.B) {
	sys := benchSystem(b, 5, 128)
	sch, err := sys.Build(ExStretch, WithK(2), WithSeed(6))
	if err != nil {
		b.Fatal(err)
	}
	benchRoundtrips(b, sys, sch)
}

func BenchmarkFig1ExStretchK3Roundtrip(b *testing.B) {
	sys := benchSystem(b, 7, 128)
	sch, err := sys.Build(ExStretch, WithK(3), WithSeed(8))
	if err != nil {
		b.Fatal(err)
	}
	benchRoundtrips(b, sys, sch)
}

// BenchmarkFig1PolyK2Roundtrip is E1/E6 (§4 scheme, bound 8k^2+4k-4).
func BenchmarkFig1PolyK2Roundtrip(b *testing.B) {
	sys := benchSystem(b, 9, 128)
	sch, err := sys.Build(Polynomial, WithK(2))
	if err != nil {
		b.Fatal(err)
	}
	benchRoundtrips(b, sys, sch)
}

// BenchmarkBuildStretch6 measures §2 preprocessing (E3/E9).
func BenchmarkBuildStretch6(b *testing.B) {
	sys := benchSystem(b, 11, 96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Build(StretchSix, WithSeed(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildExStretchK3 measures §3 preprocessing (E4).
func BenchmarkBuildExStretchK3(b *testing.B) {
	sys := benchSystem(b, 12, 96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Build(ExStretch, WithK(3), WithSeed(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildPolyK2 measures §4 preprocessing (E6).
func BenchmarkBuildPolyK2(b *testing.B) {
	sys := benchSystem(b, 13, 96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Build(Polynomial, WithK(2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2BlockAssign is E2: the Lemma 1/4 randomized assignment
// with verification.
func BenchmarkFig2BlockAssign(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	g := RandomSC(128, 512, 6, rng)
	m := AllPairs(g)
	space := rtmetric.New(g, m, nil)
	space.Init(0) // warm the order cache like a real build would
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := blocks.Assign(space, 2, rand.New(rand.NewSource(int64(i))), blocks.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if a.MaxSetSize() == 0 {
			b.Fatal("empty assignment")
		}
	}
}

// BenchmarkTheorem10Cover is E5: the Figs. 7-8 cover construction.
func BenchmarkTheorem10Cover(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	g := RandomSC(128, 512, 6, rng)
	m := AllPairs(g)
	dm := func(u, v graph.NodeID) graph.Dist { return m.R(u, v) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cover.Build(g, dm, 3, 8)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Clusters) == 0 {
			b.Fatal("no clusters")
		}
	}
}

// BenchmarkBallGrowingCover is E10's ablation counterpart.
func BenchmarkBallGrowingCover(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	g := RandomSC(128, 512, 6, rng)
	m := AllPairs(g)
	dm := func(u, v graph.NodeID) graph.Dist { return m.R(u, v) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cover.BuildBallGrowing(g, dm, 3, 8)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Clusters) == 0 {
			b.Fatal("no clusters")
		}
	}
}

// BenchmarkLemma14TreeBuild measures fixed-port tree routing
// preprocessing over a full graph (Lemma 14 substrate).
func BenchmarkLemma14TreeBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	g := RandomSC(256, 1024, 8, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := tree.BuildDouble(g, graph.NodeID(i%g.N()), nil)
		if err != nil {
			b.Fatal(err)
		}
		if t.RTHeight() == 0 {
			b.Fatal("degenerate tree")
		}
	}
}

// BenchmarkLemma2RTZOneWay is E7: one-way routing on the stretch-3
// substrate, whose guarantee p(u,v) <= r(u,v)+d(u,v) drives §2's proof.
func BenchmarkLemma2RTZOneWay(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	g := RandomSC(128, 512, 8, rng)
	m := AllPairs(g)
	sub, err := rtz.New(g, m, rng, rtz.Config{})
	if err != nil {
		b.Fatal(err)
	}
	n := g.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := graph.NodeID(i % n)
		v := graph.NodeID((i*13 + 5) % n)
		if u == v {
			v = (v + 1) % graph.NodeID(n)
		}
		if _, _, err := sub.Route(u, sub.LabelOf(v)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllPairs measures full metric construction (S1).
func BenchmarkAllPairs(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	g := RandomSC(256, 1024, 8, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := AllPairs(g)
		if m.RTDiam() == 0 {
			b.Fatal("degenerate metric")
		}
	}
}

// BenchmarkTheorem15Reduction is E8: the lower-bound analysis pass.
func BenchmarkTheorem15Reduction(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	g := Bidirect(RandomSC(24, 72, 4, rng))
	g.AssignPorts(rng.Intn)
	sys, err := NewSystem(g, RandomNaming(g.N(), rng))
	if err != nil {
		b.Fatal(err)
	}
	sch, err := sys.Build(StretchSix, WithSeed(22))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports, err := AnalyzeLowerBound(sys, sch)
		if err != nil {
			b.Fatal(err)
		}
		if SummarizeLowerBound(reports).Pairs == 0 {
			b.Fatal("no reports")
		}
	}
}

// BenchmarkInitOrder measures the Init_v total-order computation (S2),
// the dominant preprocessing cost after all-pairs.
func BenchmarkInitOrder(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	g := RandomSC(512, 2048, 8, rng)
	m := AllPairs(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		space := rtmetric.New(g, m, nil)
		ord := space.Init(graph.NodeID(i % g.N()))
		if len(ord) != g.N() {
			b.Fatal("bad order")
		}
	}
}

// BenchmarkMetricBuild drives the lazy oracle through a full 2n-row
// sweep at a 64-row cache on a 512-node graph — the worst case a scheme
// build can demand of it. (The dense build and the cold single row are
// the repo benchmark's graph.allpairs_s and graph.lazy_row_us.)
func BenchmarkMetricBuild(b *testing.B) {
	g := RandomSC(512, 2048, 8, rand.New(rand.NewSource(31)))
	b.Run("lazy-full-sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := graph.NewLazyOracle(g, 64)
			var sink graph.Dist
			for u := 0; u < g.N(); u++ {
				sink += o.FromSource(graph.NodeID(u))[0] + o.ToSink(graph.NodeID(u))[0]
			}
			if sink < 0 {
				b.Fatal("impossible")
			}
		}
	})
}

// BenchmarkEdgeByPort measures what the sealed O(1) port tables are
// compared against — the O(degree) linear scan — and the O(1) pair hash.
// (The tables themselves are the repo benchmark's graph.edgebyport_ns.)
func BenchmarkEdgeByPort(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	g := RandomSC(1024, 16*1024, 8, rng)
	g.AssignPorts(rng.Intn)
	// Collect one valid (node, port) probe per node.
	probes := make([]struct {
		u NodeID
		p graph.PortID
	}, g.N())
	for u := 0; u < g.N(); u++ {
		edges := g.Out(NodeID(u))
		probes[u].u = NodeID(u)
		probes[u].p = edges[len(edges)-1].Port
	}
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pr := probes[i%len(probes)]
			found := false
			for _, e := range g.Out(pr.u) {
				if e.Port == pr.p {
					found = true
					break
				}
			}
			if !found {
				b.Fatal("probe port missing")
			}
		}
	})
	b.Run("portto-hash", func(b *testing.B) {
		// The companion O(1) pair lookup used by table construction.
		targets := make([]NodeID, len(probes))
		for u := range targets {
			targets[u] = g.Out(NodeID(u))[0].To
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u := NodeID(i % len(targets))
			if _, ok := g.PortTo(u, targets[u]); !ok {
				b.Fatal("edge missing")
			}
		}
	})
}

// BenchmarkTrafficThroughput is scaling study S3: serving rate of one
// shared compiled StretchSix plane as the worker count grows. Each
// iteration is ONE routed roundtrip; packets/s is reported as a custom
// metric. On a single-core host the workers=2,4 rows measure scheduling
// overhead rather than speedup — run on a multicore box for the scaling
// curve.
func BenchmarkTrafficThroughput(b *testing.B) {
	sys := benchSystem(b, 1, 256)
	s6, err := sys.Build(StretchSix, WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	// Compile once, outside every timed region; traffic.Run directly
	// (not ServeTraffic) so the nil Oracle skips the stretch post-pass
	// and the measurement is pure serving throughput.
	pl, err := traffic.Compile(s6)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ResetTimer()
			res, err := traffic.Run(pl, traffic.Config{
				Workers:  workers,
				Packets:  int64(b.N),
				Seed:     1,
				Workload: traffic.Spec{Kind: traffic.Zipf},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.PacketsPerSec(), "packets/s")
			b.ReportMetric(res.HopsPerSec(), "hops/s")
		})
	}
}

// BenchmarkBuildAll1k mirrors the repo benchmark's build-1k workload:
// at n=1024 (m=4n, weights 1..8) the oracle, then each of the paper's
// three schemes at k=2 built and snapshotted with per-node sizes, each
// scheme dropped before the next. "all" is that whole sequence; the
// other sub-benchmarks time one phase of it, given the oracle.
func BenchmarkBuildAll1k(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(1))
	g := RandomSC(n, 4*n, 8, rng)
	naming := RandomNaming(n, rng)
	kinds := []struct {
		name string
		kind SchemeKind
	}{{"StretchSix", StretchSix}, {"ExStretch", ExStretch}, {"Polynomial", Polynomial}}
	build := func(b *testing.B, sys *System, kind SchemeKind) Scheme {
		sch, err := sys.Build(kind, WithK(2), WithSeed(2))
		if err != nil {
			b.Fatal(err)
		}
		return sch
	}
	snapshot := func(b *testing.B, sch Scheme) {
		blob, sizes, err := MarshalSchemeSizes(sch)
		if err != nil || len(sizes) != n {
			b.Fatalf("snapshot: %d sizes, err %v", len(sizes), err)
		}
		b.ReportMetric(float64(len(blob)), "blobBytes")
	}
	b.Run("all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys, err := NewSystem(g, naming)
			if err != nil {
				b.Fatal(err)
			}
			for _, k := range kinds {
				snapshot(b, build(b, sys, k.kind))
			}
		}
	})
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := NewSystem(g, naming); err != nil {
				b.Fatal(err)
			}
		}
	})
	sys, err := NewSystem(g, naming)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range kinds {
		b.Run("build/"+k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				build(b, sys, k.kind)
			}
		})
		b.Run("snapshot/"+k.name, func(b *testing.B) {
			sch := build(b, sys, k.kind)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snapshot(b, sch)
			}
		})
	}
}

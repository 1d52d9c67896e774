// Package benchsuite holds the canonical microbenchmark bodies —
// Dijkstra, EdgeByPort, MetricBuild, deployment and cluster serving,
// snapshot encoding — as exported functions that bench_test.go's
// `go test -bench` entries delegate to (`make bench-smoke`, `make
// benchcmp`). The repo's end-to-end instrument is the separate
// benchmark/ module (BENCHMARK.json).
package benchsuite

import (
	"math/rand"
	"runtime"
	"testing"

	"rtroute/internal/cluster"
	"rtroute/internal/core"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/telemetry"
	"rtroute/internal/traffic"
	"rtroute/internal/wire"
)

func dijkstraGraph() *graph.Graph {
	rng := rand.New(rand.NewSource(19))
	return graph.RandomSC(1024, 8192, 16, rng)
}

func BenchDijkstraPooled(b *testing.B) {
	g := dijkstraGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := graph.Dijkstra(g, graph.NodeID(i%g.N()))
		if res.Dist[(i+1)%g.N()] >= graph.Inf {
			b.Fatal("unreachable in SC graph")
		}
	}
}

func BenchDijkstraScratch(b *testing.B) {
	g := dijkstraGraph()
	s := graph.NewSSSPScratch(g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := s.Dijkstra(g, graph.NodeID(i%g.N()))
		if res.Dist[(i+1)%g.N()] >= graph.Inf {
			b.Fatal("unreachable in SC graph")
		}
	}
}

// BenchEdgeByPortAdversarial resolves ports on a graph whose labels were
// scattered over [0, 4n) by AssignPorts: the open-addressed path.
func BenchEdgeByPortAdversarial(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	g := graph.RandomSC(1024, 16*1024, 8, rng)
	benchEdgeByPort(b, g)
}

// BenchEdgeByPortDense resolves ports on a graph with the default
// contiguous per-node labels: the flat dense-table path.
func BenchEdgeByPortDense(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	adv := graph.RandomSC(1024, 16*1024, 8, rng)
	// Same topology, default contiguous labels (AddEdge order).
	g := graph.New(adv.N())
	for u := 0; u < adv.N(); u++ {
		for _, e := range adv.Out(graph.NodeID(u)) {
			g.MustAddEdge(graph.NodeID(u), e.To, e.Weight)
		}
	}
	benchEdgeByPort(b, g)
}

// benchEdgeByPort probes the public per-hop surface (Graph.EdgeByPort,
// including its per-call index load) so the rows stay comparable with
// the historical BenchmarkEdgeByPort trajectory; the PortTable-hoisted
// path is what the traffic row measures end-to-end.
func benchEdgeByPort(b *testing.B, g *graph.Graph) {
	n := g.N()
	probes := make([]struct {
		u graph.NodeID
		p graph.PortID
	}, n)
	for u := 0; u < n; u++ {
		edges := g.Out(graph.NodeID(u))
		probes[u].u = graph.NodeID(u)
		probes[u].p = edges[len(edges)-1].Port
	}
	g.Seal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := probes[i%n]
		if _, ok := g.EdgeByPort(pr.u, pr.p); !ok {
			b.Fatal("probe port missing")
		}
	}
}

func metricGraph() *graph.Graph {
	rng := rand.New(rand.NewSource(31))
	return graph.RandomSC(512, 2048, 8, rng)
}

func BenchMetricDenseSequential(b *testing.B) {
	g := metricGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := graph.AllPairsSequential(g); m.N() != g.N() {
			b.Fatal("bad metric")
		}
	}
}

func BenchMetricDenseParallel(b *testing.B) {
	g := metricGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := graph.AllPairs(g); m.N() != g.N() {
			b.Fatal("bad metric")
		}
	}
}

// BenchMetricLazyFullSweep drives the lazy oracle through a full 2n-row
// sweep at a 64-row cache — the worst case a scheme build can demand of
// it.
func BenchMetricLazyFullSweep(b *testing.B) {
	g := metricGraph()
	b.ResetTimer()
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
}

func BenchMetricLazySingleRow(b *testing.B) {
	g := metricGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := graph.NewLazyOracle(g, 2)
		if o.FromSource(graph.NodeID(i % g.N()))[0] < 0 {
			b.Fatal("impossible")
		}
	}
}

// benchStretchSix builds the shared 256-node StretchSix instance the
// serving benchmarks compile.
func benchStretchSix(b *testing.B) *core.StretchSix {
	rng := rand.New(rand.NewSource(1))
	n := 256
	g := graph.RandomSC(n, 4*n, 8, rng)
	m := graph.AllPairs(g)
	perm := names.Random(n, rng)
	s6, err := core.NewStretchSix(g, m, perm, rand.New(rand.NewSource(1)), core.Stretch6Config{})
	if err != nil {
		b.Fatal(err)
	}
	return s6
}

func benchServe(b *testing.B, pl *traffic.Plane) {
	b.ResetTimer()
	res, err := traffic.Run(pl, traffic.Config{
		Workers:  1,
		Packets:  int64(b.N),
		Seed:     1,
		Workload: traffic.Spec{Kind: traffic.Zipf},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.PacketsPerSec(), "packets/s")
	b.ReportMetric(res.HopsPerSec(), "hops/s")
}

// BenchDeploymentForward serves a single-worker Zipf workload through a
// wire-restored Deployment — per-node Router dispatch on every hop. The
// PR4 acceptance bar: within 10% of the monolithic compiled plane
// (bench_test.go's BenchmarkTrafficThroughput).
func BenchDeploymentForward(b *testing.B) {
	blob, err := wire.MarshalScheme(benchStretchSix(b))
	if err != nil {
		b.Fatal(err)
	}
	dep, err := wire.UnmarshalScheme(blob)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := traffic.Compile(dep)
	if err != nil {
		b.Fatal(err)
	}
	benchServe(b, pl)
}

// BenchClusterThroughput serves the Zipf workload through an 8-shard
// channel-bus cluster of the wire-restored Deployment: every
// boundary-crossing hop ships the packet as a flight frame and the
// owning shard resumes it — the E15 serving row.
// Cross-shard frames per roundtrip is reported alongside the rates.
func BenchClusterThroughput(b *testing.B) {
	benchCluster(b, false)
}

// BenchClusterTelemetry is the same run with the telemetry plane
// attached at rtserve defaults (sampled stage timing, heat sketches,
// flight recorder armed): the pair of rows is the observability
// overhead measurement — the PR 7 acceptance bar keeps them within a
// few percent of each other.
func BenchClusterTelemetry(b *testing.B) {
	benchCluster(b, true)
}

func benchCluster(b *testing.B, sink bool) {
	blob, err := wire.MarshalScheme(benchStretchSix(b))
	if err != nil {
		b.Fatal(err)
	}
	dep, err := wire.UnmarshalScheme(blob)
	if err != nil {
		b.Fatal(err)
	}
	cfg := cluster.Config{
		Shards:    8,
		Placement: cluster.RTZAligned,
		Packets:   int64(b.N),
		Seed:      1,
		InFlight:  4096,
		Workload:  traffic.Spec{Kind: traffic.Zipf},
	}
	if sink {
		shape := cfg.SinkShape()
		shape.TraceEvery = 1024
		cfg.Sink = telemetry.New(shape)
	}
	// Collect the build-time garbage (scheme construction, all-pairs
	// distances) before timing: leftover heap from earlier runs in the
	// same process otherwise inflates GC pressure for later ones.
	runtime.GC()
	b.ResetTimer()
	res, err := cluster.Run(dep, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.PacketsPerSec(), "packets/s")
	b.ReportMetric(res.HopsPerSec(), "hops/s")
	if res.Packets > 0 {
		b.ReportMetric(res.CrossingsPerRT(), "xframes/rt")
		b.ReportMetric(res.AllocsPerRT(), "allocs/rt")
	}
	b.ReportMetric(res.WindowOccupancy, "window-occ")
}

// BenchMarshalScheme measures full-scheme snapshot encoding (256-node
// StretchSix), reporting the blob size alongside ns/op.
func BenchMarshalScheme(b *testing.B) {
	s6 := benchStretchSix(b)
	blob, err := wire.MarshalScheme(s6)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportMetric(float64(len(blob)), "blobBytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.MarshalScheme(s6); err != nil {
			b.Fatal(err)
		}
	}
}

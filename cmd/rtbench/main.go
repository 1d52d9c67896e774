// Command rtbench runs the paper's experiments and prints their tables.
//
// Usage:
//
//	rtbench -exp fig1  -n 64  -seed 1 -k 2,3   # comparison table (E1)
//	rtbench -exp fig2  -n 36  -seed 1          # block distribution (E2, Fig. 2)
//	rtbench -exp fig5  -n 64  -seed 1          # prefix-matching dictionary walk (E5)
//	rtbench -exp fig10 -n 64  -seed 1          # center-relayed tree route (E7)
//	rtbench -exp space -seed 1                 # table-size sweep (E9)
//	rtbench -exp stretch -n 48 -seed 1         # per-scheme stretch distributions (E3/E4/E6)
//	rtbench -exp profile -n 64 -seed 1         # stretch by roundtrip-distance quantile
//	rtbench -exp lower -n 25 -seed 1           # Theorem 15 reduction (E8)
//	rtbench -exp ablation -n 36 -seed 1        # cover-variant ablation (E10)
//	rtbench -exp traffic -n 256 -packets 200000 -workload zipf -workers 4
//	                                           # concurrent serving engine (E12/S3)
//	rtbench -exp cluster -n 256 -shards 8 -placement rtz -packets 200000
//	                                           # sharded cluster serving (E15/S6)
//	rtbench -exp churn -n 1024 -epochs 8 -events 1 -packets 80000
//	                                           # dynamic topology at one shard: seeded churn, repair, certification (E17)
//	rtbench -exp churncluster -n 256 -shards 8 -epochs 4 -events 4 -packets 40000
//	                                           # churn through the shard fabric, certified under fire (E19)
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"rtroute"
	"rtroute/internal/core"
)

func main() {
	var (
		exp    = flag.String("exp", "fig1", "experiment: fig1|fig2|fig5|fig10|space|stretch|profile|lower|ablation|traffic|cluster|churn|churncluster")
		n      = flag.Int("n", 64, "number of nodes")
		seed   = flag.Int64("seed", 1, "random seed")
		ks     = flag.String("k", "2,3", "comma-separated tradeoff parameters")
		metric = flag.String("metric", "dense", "distance oracle: dense|lazy")
		cache  = flag.Int("lazy-cache", 0, "lazy oracle row-cache budget (0 = default)")
	)
	flag.StringVar(&churnOut, "out", "", "churn/churncluster: also write the report as JSON to this path")
	flag.IntVar(&trafficWorkers, "workers", 0, "traffic: serving goroutines (0 = GOMAXPROCS)")
	flag.StringVar(&trafficWorkload, "workload", "zipf", "traffic: pair distribution: uniform|zipf|hotspot|rpc")
	flag.Float64Var(&trafficZipf, "zipf", 0.9, "traffic: zipf skew theta in [0,1)")
	flag.Int64Var(&trafficPackets, "packets", 200000, "traffic: roundtrips to serve")
	flag.StringVar(&trafficScheme, "scheme", "stretch6", "traffic: plane to serve: stretch6|exstretch|poly|rtz|hop")
	flag.IntVar(&clusterShards, "shards", 8, "cluster: placement partitions (one fabric worker per core serves them); churncluster: shards")
	flag.StringVar(&clusterPlacement, "placement", "contiguous", "cluster: node partition: contiguous|hash|rtz")
	flag.IntVar(&clusterInFlight, "inflight", 0, "cluster: concurrent roundtrip window (0 = default)")
	flag.IntVar(&churnEpochs, "epochs", 8, "churn/churncluster: event batches (churn->repair->certify rounds)")
	flag.IntVar(&churnEvents, "events", 4, "churn/churncluster: topology events per batch")
	flag.BoolVar(&churnCertify, "certify", true, "churn/churncluster: certify the repaired plane bit-identical to a from-scratch build every batch")
	flag.BoolVar(&servingTiming, "timing", false, "traffic/cluster: attach a telemetry sink and print the measured per-stage cost table")
	flag.StringVar(&servingHTTP, "http", "", "traffic/cluster: serve live /metrics and /debug/pprof on this address during the run")
	flag.Parse()
	metricKind = rtroute.MetricKind(*metric)
	lazyCacheRows = *cache
	if metricKind != rtroute.MetricDense && metricKind != rtroute.MetricLazy {
		fmt.Fprintf(os.Stderr, "rtbench: unknown -metric %q (want %q or %q)\n",
			*metric, rtroute.MetricDense, rtroute.MetricLazy)
		os.Exit(2)
	}

	if err := run(*exp, *n, *seed, parseKs(*ks)); err != nil {
		fmt.Fprintln(os.Stderr, "rtbench:", err)
		os.Exit(1)
	}
}

// metricKind selects the distance oracle for every experiment that
// builds a System (-metric flag); lazyCacheRows bounds the lazy cache.
var (
	metricKind    = rtroute.MetricDense
	lazyCacheRows int

	// -exp traffic knobs.
	trafficWorkers  int
	trafficWorkload string
	trafficZipf     float64
	trafficPackets  int64
	trafficScheme   string

	// -exp cluster knobs.
	clusterShards    int
	clusterPlacement string
	clusterInFlight  int

	// -exp churn / churncluster knobs.
	churnEpochs  int
	churnEvents  int
	churnCertify bool
	churnOut     string

	// serving telemetry knobs (-exp traffic and -exp cluster).
	servingTiming bool
	servingHTTP   string
)

func newSystem(g *rtroute.Graph, naming *rtroute.Naming) (*rtroute.System, error) {
	return rtroute.NewSystemWith(g, naming, rtroute.SystemConfig{Metric: metricKind, LazyCacheRows: lazyCacheRows})
}

func parseKs(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		if k, err := strconv.Atoi(strings.TrimSpace(part)); err == nil && k >= 2 {
			out = append(out, k)
		}
	}
	if len(out) == 0 {
		out = []int{2}
	}
	return out
}

func run(exp string, n int, seed int64, ks []int) error {
	switch exp {
	case "fig1":
		return runFig1(n, seed, ks)
	case "fig2":
		return runFig2(n, seed)
	case "fig5":
		return runFig5(n, seed)
	case "fig10":
		return runFig10(n, seed)
	case "space":
		return runSpace(seed)
	case "stretch":
		return runStretch(n, seed, ks)
	case "profile":
		return runProfile(n, seed)
	case "lower":
		return runLower(n, seed)
	case "ablation":
		return runAblation(n, seed)
	case "traffic":
		return runTraffic(n, seed)
	case "cluster":
		return runCluster(n, seed)
	case "churn":
		return runChurnExp(n, seed)
	case "churncluster":
		return runChurnClusterExp(n, seed)
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

// schemeKind resolves the -scheme flag to a SchemeKind.
func schemeKind() (rtroute.SchemeKind, error) {
	switch trafficScheme {
	case "stretch6":
		return rtroute.StretchSix, nil
	case "exstretch":
		return rtroute.ExStretch, nil
	case "poly":
		return rtroute.Polynomial, nil
	case "rtz":
		return rtroute.RTZStretch3, nil
	case "hop":
		return rtroute.HopSubstrate, nil
	default:
		return 0, fmt.Errorf("unknown -scheme %q (want stretch6|exstretch|poly|rtz|hop)", trafficScheme)
	}
}

// buildServingScheme builds the -scheme plane for the serving
// experiments.
func buildServingScheme(sys *rtroute.System, seed int64) (rtroute.Scheme, error) {
	kind, err := schemeKind()
	if err != nil {
		return nil, err
	}
	return sys.Build(kind, rtroute.WithSeed(seed), rtroute.WithK(2))
}

// attachSink builds the serving experiments' telemetry sink when
// -timing or -http asks for one (nil otherwise — the plane off switch)
// and starts the live HTTP surface when -http is set. The returned
// stop func shuts the HTTP server down.
func attachSink(shape rtroute.TelemetryConfig) (*rtroute.TelemetrySink, func(), error) {
	if !servingTiming && servingHTTP == "" {
		return nil, func() {}, nil
	}
	sink := rtroute.NewTelemetrySink(shape)
	if servingHTTP == "" {
		return sink, func() {}, nil
	}
	srv, bound, err := rtroute.ServeTelemetry(servingHTTP, sink, nil)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("telemetry on http://%s/metrics\n\n", bound)
	return sink, func() { srv.Close() }, nil
}

// printTiming renders the machine-measured per-stage cost table that
// replaces the DESIGN "Serving numbers" hand arithmetic: sampled stage
// laps scaled up by batch counts, compared against measured wall ns/rt.
func printTiming(sink *rtroute.TelemetrySink, packets int64, elapsedNs int64) {
	if sink == nil || !servingTiming {
		return
	}
	wall := float64(elapsedNs) / float64(packets)
	fmt.Printf("\nmeasured stage timing (sampled batches, scaled to per-roundtrip)\n%s",
		sink.Snapshot().FormatStageTable(packets, wall))
}

func runTraffic(n int, seed int64) error {
	fmt.Printf("# E12/S3 — concurrent routed-traffic serving (n=%d, seed=%d, scheme=%s, workload=%s, metric=%s)\n\n",
		n, seed, trafficScheme, trafficWorkload, metricKind)
	rng := rand.New(rand.NewSource(seed))
	g := rtroute.RandomSC(n, 4*n, 8, rng)
	sys, err := newSystem(g, rtroute.RandomNaming(n, rng))
	if err != nil {
		return err
	}
	plane, err := buildServingScheme(sys, seed)
	if err != nil {
		return err
	}
	cfg := rtroute.TrafficConfig{
		Workers: trafficWorkers,
		Packets: trafficPackets,
		Seed:    seed,
		Workload: rtroute.TrafficWorkload{
			Kind:      rtroute.WorkloadKind(trafficWorkload),
			ZipfTheta: trafficZipf,
		},
	}
	sink, stop, err := attachSink(cfg.SinkShape())
	if err != nil {
		return err
	}
	defer stop()
	cfg.Sink = sink
	res, err := sys.ServeTraffic(plane, cfg)
	if err != nil {
		return err
	}
	fmt.Print(rtroute.FormatTraffic(res))
	printTiming(sink, res.Packets, res.Elapsed.Nanoseconds())
	fmt.Println("\nstretch is measured over true roundtrip distances; skewed workloads reuse hot oracle rows")
	return nil
}

// runCluster is the E15 sharded-serving experiment: the same workloads
// as -exp traffic, served by an in-process shard cluster that
// wire-encodes every boundary-crossing packet, reported with the
// placement-quality and fabric-cost figures told apart.
func runCluster(n int, seed int64) error {
	fmt.Printf("# E15/S6 — sharded cluster serving (n=%d, seed=%d, scheme=%s, workload=%s, partitions=%d, placement=%s)\n\n",
		n, seed, trafficScheme, trafficWorkload, clusterShards, clusterPlacement)
	rng := rand.New(rand.NewSource(seed))
	g := rtroute.RandomSC(n, 4*n, 8, rng)
	sys, err := newSystem(g, rtroute.RandomNaming(n, rng))
	if err != nil {
		return err
	}
	sch, err := buildServingScheme(sys, seed)
	if err != nil {
		return err
	}
	cfg := rtroute.ClusterConfig{
		Shards:    clusterShards,
		Workers:   trafficWorkers,
		Placement: rtroute.PlacementPolicy(clusterPlacement),
		Packets:   trafficPackets,
		Seed:      seed,
		Workload: rtroute.TrafficWorkload{
			Kind:      rtroute.WorkloadKind(trafficWorkload),
			ZipfTheta: trafficZipf,
		},
		SampleEvery: 101,
		InFlight:    clusterInFlight,
	}
	sink, stop, err := attachSink(cfg.SinkShape())
	if err != nil {
		return err
	}
	defer stop()
	cfg.Sink = sink
	res, err := sys.ServeCluster(sch, cfg)
	if err != nil {
		return err
	}
	fmt.Print(rtroute.FormatCluster(res))
	printTiming(sink, res.Packets, res.Elapsed.Nanoseconds())
	fmt.Println("\npackets cross between fabric workers as wire-encoded frames; see DESIGN.md \"Cluster serving\"")
	return nil
}

func runProfile(n int, seed int64) error {
	fmt.Printf("# stretch profile by roundtrip distance (n=%d, seed=%d)\n\n", n, seed)
	rng := rand.New(rand.NewSource(seed))
	g := rtroute.RandomSC(n, 4*n, 8, rng)
	sys, err := newSystem(g, rtroute.RandomNaming(n, rng))
	if err != nil {
		return err
	}
	for _, b := range []struct {
		name  string
		build func() (rtroute.Scheme, error)
	}{
		{"stretch6", func() (rtroute.Scheme, error) { return sys.Build(rtroute.StretchSix, rtroute.WithSeed(seed)) }},
		{"polystretch k=2", func() (rtroute.Scheme, error) { return sys.Build(rtroute.Polynomial, rtroute.WithK(2)) }},
	} {
		sch, err := b.build()
		if err != nil {
			return err
		}
		buckets, err := rtroute.ProfileScheme(sys, sch, 5000, 5, seed)
		if err != nil {
			return err
		}
		fmt.Printf("%s:\n%s\n", b.name, rtroute.FormatProfile(buckets))
	}
	fmt.Println("nearby destinations pay relatively more: dictionary detours dominate small r(s,t)")
	return nil
}

func runFig5(n int, seed int64) error {
	fmt.Printf("# Fig. 5 — prefix-matching dictionary walk (ExStretch, n=%d, seed=%d)\n\n", n, seed)
	rng := rand.New(rand.NewSource(seed))
	g := rtroute.RandomSC(n, 4*n, 6, rng)
	sys, err := newSystem(g, rtroute.RandomNaming(n, rng))
	if err != nil {
		return err
	}
	sch, err := sys.Build(rtroute.ExStretch, rtroute.WithK(4), rtroute.WithSeed(seed))
	if err != nil {
		return err
	}
	ex := sch.(*core.ExStretch)
	printed := 0
	for src := 0; src < n && printed < 3; src++ {
		dst := (src*37 + n/2) % n
		if src == dst {
			continue
		}
		srcName := sys.Naming.Name(int32(src))
		dstName := sys.Naming.Name(int32(dst))
		steps, err := ex.PrefixTrace(srcName, dstName)
		if err != nil {
			return err
		}
		if len(steps) < 3 {
			continue // walk too short to illustrate; try another pair
		}
		printed++
		fmt.Printf("destination name %d = digits %v (base %d)\n", dstName, ex.Universe().Digits(dstName), ex.Universe().Q)
		for i, st := range steps {
			fmt.Printf("  v_%d: node %3d  name %4d  digits %v  holds block matching %d digit(s) of target\n",
				i, st.Node, st.Name, st.Digits, st.Matched)
		}
		fmt.Println()
	}
	fmt.Println("each waypoint's blocks match a strictly longer prefix — the Fig. 5 schematic")
	return nil
}

func runFig10(n int, seed int64) error {
	fmt.Printf("# Fig. 10 — center-relayed route inside a home double-tree (PolynomialStretch, n=%d, seed=%d)\n\n", n, seed)
	rng := rand.New(rand.NewSource(seed))
	g := rtroute.RandomSC(n, 4*n, 6, rng)
	sys, err := newSystem(g, rtroute.RandomNaming(n, rng))
	if err != nil {
		return err
	}
	sch, err := sys.Build(rtroute.Polynomial, rtroute.WithK(2))
	if err != nil {
		return err
	}
	poly := sch.(*core.PolynomialStretch)
	src := sys.Naming.Name(0)
	dst := sys.Naming.Name(int32(n / 2))
	tr, err := poly.Roundtrip(src, dst)
	if err != nil {
		return err
	}
	fmt.Printf("roundtrip name %d -> %d -> %d\n", src, dst, src)
	fmt.Printf("  out path  (topological ids): %v\n", tr.Out.Path)
	fmt.Printf("  back path (topological ids): %v\n", tr.Back.Path)
	for lvl := 0; lvl < poly.Levels(); lvl++ {
		root, err := poly.HomeTreeRoot(src, lvl)
		if err != nil {
			return err
		}
		fmt.Printf("  level %d home-tree center (name): %d\n", lvl, root)
	}
	fmt.Println("\nthe packet repeatedly relays through its tree's center, as in Fig. 10")
	return nil
}

func runFig1(n int, seed int64, ks []int) error {
	fmt.Printf("# E1 / Fig. 1 — scheme comparison on a random SC digraph (n=%d, seed=%d)\n\n", n, seed)
	rows, err := rtroute.Fig1(rtroute.Fig1Config{
		N: n, Seed: seed, Ks: ks,
		Lazy: metricKind == rtroute.MetricLazy, LazyCacheRows: lazyCacheRows,
	})
	if err != nil {
		return err
	}
	fmt.Print(rtroute.FormatFig1(rows))
	fmt.Println("\nstretch columns are measured over sampled ordered pairs; bounds are the paper's worst cases")
	return nil
}

func runFig2(n int, seed int64) error {
	fmt.Printf("# E2 / Fig. 2 — block distribution (Lemma 1) on n=%d, seed=%d\n\n", n, seed)
	rng := rand.New(rand.NewSource(seed))
	g := rtroute.RandomSC(n, 3*n, 1, rng)
	sys, err := newSystem(g, rtroute.RandomNaming(n, rng))
	if err != nil {
		return err
	}
	sch, err := sys.Build(rtroute.StretchSix, rtroute.WithSeed(seed))
	if err != nil {
		return err
	}
	s6 := sch.(*core.StretchSix)
	fmt.Printf("%-8s %-20s\n", "node", "neighborhood size")
	for v := 0; v < n && v < 12; v++ {
		fmt.Printf("%-8d %-20d\n", v, s6.NeighborhoodEntries(rtroute.NodeID(v)))
	}
	fmt.Printf("...\nmax table words: %d  avg: %.1f\n", s6.MaxTableWords(), s6.AvgTableWords())
	fmt.Println("every neighborhood covers every block type (verified at construction)")
	return nil
}

func runSpace(seed int64) error {
	fmt.Printf("# E9 — table size vs n for the stretch-6 scheme (seed=%d)\n\n", seed)
	pts, err := rtroute.SpaceSweep([]int{64, 128, 256, 512}, seed)
	if err != nil {
		return err
	}
	fmt.Print(rtroute.FormatSpaceSweep(pts))
	fmt.Println("\navg/sqrt(n) should be roughly flat times polylog growth")
	return nil
}

func runStretch(n int, seed int64, ks []int) error {
	fmt.Printf("# E3/E4/E6 — stretch distributions (n=%d, seed=%d)\n\n", n, seed)
	rng := rand.New(rand.NewSource(seed))
	g := rtroute.RandomSC(n, 4*n, 8, rng)
	sys, err := newSystem(g, rtroute.RandomNaming(n, rng))
	if err != nil {
		return err
	}
	type build struct {
		name  string
		bound string
		sch   rtroute.Scheme
	}
	var builds []build
	s6, err := sys.Build(rtroute.StretchSix, rtroute.WithSeed(seed))
	if err != nil {
		return err
	}
	builds = append(builds, build{"stretch6", "6", s6})
	for _, k := range ks {
		ex, err := sys.Build(rtroute.ExStretch, rtroute.WithK(k), rtroute.WithSeed(seed))
		if err != nil {
			return err
		}
		builds = append(builds, build{fmt.Sprintf("exstretch k=%d", k), fmt.Sprintf("(2^%d-1)*hop", k), ex})
		poly, err := sys.Build(rtroute.Polynomial, rtroute.WithK(k))
		if err != nil {
			return err
		}
		builds = append(builds, build{fmt.Sprintf("polystretch k=%d", k), fmt.Sprintf("%d", 8*k*k+4*k-4), poly})
	}
	fmt.Printf("%-18s %-14s %8s %8s %8s %10s\n", "scheme", "bound", "maxS", "meanS", "p99S", "maxHdrW")
	for _, b := range builds {
		stats, err := rtroute.MeasureScheme(sys, b.sch, 4000, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", b.name, err)
		}
		fmt.Printf("%-18s %-14s %8.3f %8.3f %8.3f %10d\n",
			b.name, b.bound, stats.Max, stats.Mean, stats.P99, stats.MaxHeaderWords)
	}
	return nil
}

func runLower(n int, seed int64) error {
	fmt.Printf("# E8 / Theorem 15 — reduction on a bidirected graph (n=%d, seed=%d)\n\n", n, seed)
	rng := rand.New(rand.NewSource(seed))
	g := rtroute.Bidirect(rtroute.RandomSC(n, 3*n, 4, rng))
	g.AssignPorts(rng.Intn)
	sys, err := newSystem(g, rtroute.RandomNaming(g.N(), rng))
	if err != nil {
		return err
	}
	s6, err := sys.Build(rtroute.StretchSix, rtroute.WithSeed(seed))
	if err != nil {
		return err
	}
	reports, err := rtroute.AnalyzeLowerBound(sys, s6)
	if err != nil {
		return err
	}
	sum := rtroute.SummarizeLowerBound(reports)
	fmt.Printf("pairs analyzed:          %d\n", sum.Pairs)
	fmt.Printf("max roundtrip stretch:   %.3f (scheme bound 6)\n", sum.MaxRoundtripStretch)
	fmt.Printf("max induced 1-way stretch: %.3f (s1 <= 2*s2 - 1)\n", sum.MaxOneWayStretch)
	fmt.Printf("pairs with roundtrip stretch < 2: %d / %d\n", sum.PairsBelow2, sum.Pairs)
	fmt.Println("\nTheorem 15: with o(n) tables, no TINN roundtrip scheme can keep ALL pairs below 2")
	return nil
}

func runAblation(n int, seed int64) error {
	fmt.Printf("# E10 / §4.4 — cover-variant ablation for polystretch (n=%d, seed=%d)\n\n", n, seed)
	rng := rand.New(rand.NewSource(seed))
	g := rtroute.RandomSC(n, 4*n, 6, rng)
	sys, err := newSystem(g, rtroute.RandomNaming(n, rng))
	if err != nil {
		return err
	}
	fmt.Printf("%-28s %8s %8s %10s %10s\n", "variant", "maxS", "meanS", "maxTblW", "avgTblW")
	for _, v := range []struct {
		name string
		cv   rtroute.CoverVariant
		base float64
	}{
		{"awerbuch-peleg base=2", rtroute.CoverAwerbuchPeleg, 2},
		{"ball-growing base=2", rtroute.CoverBallGrowing, 2},
		{"awerbuch-peleg base=1.5", rtroute.CoverAwerbuchPeleg, 1.5},
	} {
		poly, err := sys.Build(rtroute.Polynomial, rtroute.WithK(2), rtroute.WithScaleBase(v.base), rtroute.WithCoverVariant(v.cv))
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		stats, err := rtroute.MeasureScheme(sys, poly, 3000, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		fmt.Printf("%-28s %8.3f %8.3f %10d %10.1f\n",
			v.name, stats.Max, stats.Mean, poly.MaxTableWords(), poly.AvgTableWords())
	}
	fmt.Println("\n§4.4: the AP cover keeps whole neighborhoods in one home tree; ball-growing trades radius for overlap")

	fmt.Printf("\n# return-trip policy ablations (§2.2 and §3.5 remarks)\n\n")
	fmt.Printf("%-28s %8s %8s %10s %10s %10s\n", "scheme variant", "maxS", "meanS", "maxTblW", "avgTblW", "maxHdrW")
	// Sparse block assignments (low boost) make the dictionary path
	// actually fire, so the return-policy variants can diverge.
	sparse := rtroute.BlockOptions{Boost: 1.2}
	variants := []struct {
		name  string
		build func() (rtroute.Scheme, error)
	}{
		{"stretch6", func() (rtroute.Scheme, error) {
			return sys.Build(rtroute.StretchSix, rtroute.WithSeed(seed), rtroute.WithBlocks(sparse))
		}},
		{"stretch6 via-source", func() (rtroute.Scheme, error) {
			return sys.Build(rtroute.StretchSix, rtroute.WithSeed(seed), rtroute.WithBlocks(sparse), rtroute.WithViaSource())
		}},
		{"exstretch k=2", func() (rtroute.Scheme, error) {
			return sys.Build(rtroute.ExStretch, rtroute.WithSeed(seed), rtroute.WithBlocks(sparse))
		}},
		{"exstretch k=2 direct-return", func() (rtroute.Scheme, error) {
			return sys.Build(rtroute.ExStretch, rtroute.WithSeed(seed), rtroute.WithBlocks(sparse), rtroute.WithDirectReturn())
		}},
	}
	for _, v := range variants {
		sch, err := v.build()
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		stats, err := rtroute.MeasureScheme(sys, sch, 3000, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		fmt.Printf("%-28s %8.3f %8.3f %10d %10.1f %10d\n",
			v.name, stats.Max, stats.Mean, sch.MaxTableWords(), sch.AvgTableWords(), stats.MaxHeaderWords)
	}
	fmt.Println("\nvia-source lengthens paths; direct-return trades header/stack for global labels")
	return nil
}

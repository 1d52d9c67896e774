// Command rtroute builds a routing scheme over a generated network and
// traces roundtrips interactively from the command line. It also
// exercises the wire codec end to end: -save snapshots a built scheme to
// disk, -load serves routes from a snapshot (no rebuild), -sizes prints
// the per-node encoded-bytes space report, and -connect routes through
// a running rtserve shard cluster instead of a local scheme.
//
// Usage:
//
//	rtroute -n 32 -seed 7 -scheme stretch6 -src 3 -dst 17
//	rtroute -n 64 -seed 1 -scheme exstretch -k 3 -src 0 -dst 42 -v
//	rtroute -n 32 -seed 2 -scheme poly -k 2 -all
//	rtroute -n 256 -scheme stretch6 -save s6.rtwf
//	rtroute -load s6.rtwf -all
//	rtroute -sizes
//	rtroute -connect 127.0.0.1:7070 -src 3 -dst 17
//	rtroute -connect 127.0.0.1:7070 -pairs 100 -seed 2
//	rtroute -connect 127.0.0.1:7070 -pairs 10000 -window 256
//
// When the daemons run with -http and -trace-every, -trace fetches the
// routed roundtrip's recorded hop events back from their telemetry
// surfaces and prints a per-daemon timeline:
//
//	rtroute -connect 127.0.0.1:7070 -src 3 -dst 17 \
//	        -trace 127.0.0.1:8070,127.0.0.1:8071
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"rtroute"
	"rtroute/internal/cluster"
	"rtroute/internal/graph"
	"rtroute/internal/wire"
)

func main() {
	var (
		n       = flag.Int("n", 32, "number of nodes")
		seed    = flag.Int64("seed", 1, "random seed")
		scheme  = flag.String("scheme", "stretch6", "scheme: stretch6|exstretch|poly|rtz|hop")
		k       = flag.Int("k", 2, "tradeoff parameter for exstretch/poly/hop")
		src     = flag.Int("src", 0, "source NAME")
		dst     = flag.Int("dst", 1, "destination NAME")
		all     = flag.Bool("all", false, "route all ordered pairs and summarize")
		graphT  = flag.String("graph", "random", "graph family: "+graph.Families)
		loadG   = flag.String("loadgraph", "", "load a graph from this file instead of generating one")
		verbo   = flag.Bool("v", false, "print the full node path")
		save    = flag.String("save", "", "build the scheme, snapshot it to this file (wire format), and exit")
		load    = flag.String("load", "", "serve from a scheme snapshot instead of building (graph+naming+tables restored from the file)")
		sizes   = flag.Bool("sizes", false, "print the per-node encoded-bytes space report (Theorem 6 certification) and exit")
		sizesNs = flag.String("sizes-ns", "256,1024,4096", "comma-separated graph sizes for -sizes")
		connect = flag.String("connect", "", "route through a running rtserve cluster at this shard address instead of a local scheme")
		pairs   = flag.Int("pairs", 0, "with -connect: route this many random pairs and summarize (0 = the single -src/-dst pair)")
		window  = flag.Int("window", 1, "with -connect -pairs: keep this many roundtrips in flight (pipelined, out-of-order completion)")
		trace   = flag.String("trace", "", "with -connect: comma-separated daemon telemetry addresses (rtserve -http) to fetch the roundtrip's recorded hop trace from")
		churnN  = flag.Int("churn", 0, "with -connect and -load: draw this many seeded churn batches from the snapshot graph and ship each to every churn address, waiting out the repair acks (0 = off)")
		churnE  = flag.Int("churn-events", 4, "with -churn: topology events per batch")
		churnS  = flag.Int64("churn-seed", 1, "with -churn: event-model seed (the stream is a pure function of it)")
		churnA  = flag.String("churn-addrs", "", "with -churn: comma-separated daemon addresses to repair; list every daemon, or the cluster diverges (default: just -connect)")
	)
	flag.Parse()

	if *sizes {
		if err := runSizes(*sizesNs, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "rtroute:", err)
			os.Exit(1)
		}
		return
	}
	if *connect != "" {
		if *churnN > 0 {
			if err := runConnectChurn(*connect, *churnA, *load, *churnN, *churnE, *churnS); err != nil {
				fmt.Fprintln(os.Stderr, "rtroute:", err)
				os.Exit(1)
			}
			return
		}
		if err := runConnect(*connect, int32(*src), int32(*dst), *pairs, *window, *seed, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "rtroute:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdout, *n, *seed, *scheme, *k, int32(*src), int32(*dst), *all, *graphT, *loadG,
		*verbo, *save, *load); err != nil {
		fmt.Fprintln(os.Stderr, "rtroute:", err)
		os.Exit(1)
	}
}

// runSizes prints the E14 encoded space report: per-node wire bytes of
// the stretch-6 scheme across graph sizes, with the fitted growth
// exponent (Theorem 6 predicts ~sqrt n, slope 0.5 plus a log factor).
func runSizes(nsSpec string, seed int64) error {
	var ns []int
	for _, f := range strings.Split(nsSpec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return fmt.Errorf("bad -sizes-ns entry %q: %w", f, err)
		}
		if v < 2 {
			return fmt.Errorf("bad -sizes-ns entry %q: need at least 2 nodes", f)
		}
		ns = append(ns, v)
	}
	fmt.Println("# E14 — per-node encoded routing state (wire bytes), stretch6")
	pts, err := rtroute.EncodedSpaceSweep(rtroute.EncodedSpaceConfig{Ns: ns, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Print(rtroute.FormatEncodedSpace(pts))
	return nil
}

// runConnect is the network-client mode: roundtrips are injected into a
// running rtserve shard cluster and certified totals come back as Done
// frames — no scheme is built or loaded locally. A cluster repairing
// under churn may drop a roundtrip instead; drops are counted by reason
// and kept out of the hop and weight totals.
func runConnect(addr string, src, dst int32, pairs, window int, seed int64, trace string) error {
	cl, err := cluster.DialClient(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	kind, n, shards, err := cl.Info()
	if err != nil {
		return fmt.Errorf("cluster info from %s: %w", addr, err)
	}
	fmt.Printf("connected to %s: scheme %s, n=%d, %d shards\n", addr, kind, n, shards)
	var ps []cluster.Pair
	if pairs <= 0 {
		if int(src) >= n || int(dst) >= n || src < 0 || dst < 0 || src == dst {
			return fmt.Errorf("names must be distinct and in [0,%d)", n)
		}
		// One pair: the inject carries roundtrip tag 1, the tag -trace
		// fetches.
		ps, window = []cluster.Pair{{Src: src, Dst: dst}}, 1
	} else {
		if n < 2 {
			return fmt.Errorf("cluster serves %d node(s); -pairs needs at least 2", n)
		}
		rng := rand.New(rand.NewSource(seed))
		ps = make([]cluster.Pair, pairs)
		for i := range ps {
			s := int32(rng.Intn(n))
			d := int32(rng.Intn(n - 1))
			if d >= s {
				d++
			}
			ps[i] = cluster.Pair{Src: s, Dst: d}
		}
	}
	var drops [3]int // by wire drop reason, which the decoder bounds
	cl.OnDrop = func(_ int, reason byte) error { drops[reason]++; return nil }
	var hops, weight int64
	var out, back wire.LegTotals
	start := time.Now()
	err = cl.Roundtrips(ps, window, func(_ int, o, b wire.LegTotals) error {
		out, back = o, b
		hops += int64(o.Hops) + int64(b.Hops)
		weight += int64(o.Weight) + int64(b.Weight)
		return nil
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	unroutable, misrouted := drops[wire.DropUnroutable], drops[wire.DropMisroute]
	served := len(ps) - unroutable - misrouted
	if served < len(ps) {
		fmt.Printf("%d of %d roundtrips dropped while the cluster repairs: unroutable %d, misrouted %d\n",
			len(ps)-served, len(ps), unroutable, misrouted)
	}
	switch {
	case pairs > 0:
		fmt.Printf("%d roundtrips over the cluster: %d hops, total weight %d\n", served, hops, weight)
		if window > 1 {
			fmt.Printf("%.0f roundtrips/s (window %d in flight)\n", float64(pairs)/elapsed.Seconds(), window)
		} else {
			fmt.Printf("%.0f roundtrips/s (single synchronous client)\n", float64(pairs)/elapsed.Seconds())
		}
	case served == 1:
		fmt.Printf("roundtrip %d -> %d -> %d\n", src, dst, src)
		fmt.Printf("  routed weight:  %d (out %d + back %d)\n", out.Weight+back.Weight, out.Weight, back.Weight)
		fmt.Printf("  hops:           %d (out %d + back %d)\n", out.Hops+back.Hops, out.Hops, back.Hops)
		fmt.Printf("  max header:     %d words\n", max(out.MaxHeaderWords, back.MaxHeaderWords))
	}
	if trace != "" {
		return fetchTrace(trace)
	}
	return nil
}

// runConnectChurn is the churn-injector mode: it draws a seeded,
// replayable event stream against its own copy of the served snapshot
// (events must be admissible on the real topology, which the daemons
// never ship back) and broadcasts each batch to every daemon armed with
// rtserve -repair, blocking on the repair acks. Daemons apply batches
// in sequence order between two served batches, so a batch is only
// acked once the owned table slice is repaired; concurrent rtroute
// -pairs clients keep routing throughout. A daemon refuses a batch it
// has already applied (a rerun against the same daemons numbers from 1
// again) and its ack names the batch it expects next.
func runConnectChurn(addr, addrsSpec, load string, batches, eventsPer int, seed int64) error {
	if load == "" {
		return fmt.Errorf("-churn draws events against the daemons' topology: pass the served snapshot with -load")
	}
	if eventsPer < 1 {
		return fmt.Errorf("-churn-events must be at least 1")
	}
	data, err := os.ReadFile(load)
	if err != nil {
		return err
	}
	dep, err := rtroute.UnmarshalScheme(data)
	if err != nil {
		return fmt.Errorf("loading %s: %w", load, err)
	}
	ov, err := rtroute.NewChurnOverlay(dep.Graph(), rtroute.DamperOptions{})
	if err != nil {
		return err
	}
	model := rtroute.NewChurnModel(ov, seed, 1, rtroute.DefaultChurnMix, 64)

	spec := addrsSpec
	if spec == "" {
		spec = addr
	}
	var (
		clients []*cluster.Client
		names   []string
	)
	for _, raw := range strings.Split(spec, ",") {
		a := strings.TrimSpace(raw)
		if a == "" {
			continue
		}
		cl, err := cluster.DialClient(a)
		if err != nil {
			return fmt.Errorf("dialing %s: %w", a, err)
		}
		defer cl.Close()
		clients = append(clients, cl)
		names = append(names, a)
	}
	fmt.Printf("injecting %d churn batches (%d events each, seed %d) into %d daemon(s)\n",
		batches, eventsPer, seed, len(clients))
	for b := 0; b < batches; b++ {
		seq := uint64(b + 1)
		events, _, err := model.NextBatch(eventsPer)
		if err != nil {
			return fmt.Errorf("batch %d: %w", b, err)
		}
		start := time.Now()
		for i, cl := range clients {
			if err := cl.Churn(seq, events); err != nil {
				return fmt.Errorf("batch %d to %s: %w", b, names[i], err)
			}
		}
		fmt.Printf("batch %d: %d events, %d daemon(s) repaired and acked in %v\n",
			b, len(events), len(clients), time.Since(start).Round(time.Microsecond))
	}
	return nil
}

// fetchTrace pulls roundtrip tag 1's recorded hop events back from each
// daemon's telemetry surface (rtserve -http) and prints one timeline
// per daemon. Timestamps are on each daemon's own sink clock, so the
// timelines are not merged — each section's offsets are internally
// exact, and the hop counts line the legs up across daemons.
func fetchTrace(spec string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	for _, raw := range strings.Split(spec, ",") {
		u := strings.TrimSpace(raw)
		if u == "" {
			continue
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		resp, err := client.Get(u + "/trace?rt=1")
		if err != nil {
			return fmt.Errorf("fetching trace from %s: %w", u, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("reading trace from %s: %w", u, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s/trace: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
		}
		var events []rtroute.TelemetryEvent
		if err := json.Unmarshal(body, &events); err != nil {
			return fmt.Errorf("decoding trace from %s: %w", u, err)
		}
		fmt.Printf("\nhop trace from %s (%d events, daemon-local clock):\n", u, len(events))
		fmt.Print(rtroute.FormatTraceTimeline(events))
	}
	return nil
}

func buildKind(name string) (rtroute.SchemeKind, error) {
	switch name {
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
		return 0, fmt.Errorf("unknown scheme %q", name)
	}
}

// run builds (or loads) a scheme and writes the requested report to w.
func run(w io.Writer, n int, seed int64, schemeName string, k int, src, dst int32, all bool,
	family, loadGraph string, verbose bool, save, load string) error {
	var (
		sch rtroute.Scheme
		sys *rtroute.System
	)
	if load != "" {
		// Serve from a snapshot: graph, naming and every node's tables
		// come out of the file; only the stretch-accounting oracle is
		// recomputed.
		data, err := os.ReadFile(load)
		if err != nil {
			return err
		}
		// Say what the snapshot is before the (potentially long) table
		// decode and oracle build, and turn a version mismatch into a
		// clear message instead of a raw decode error.
		info, err := rtroute.PeekSnapshot(data)
		if err != nil {
			if errors.Is(err, rtroute.ErrSnapshotVersion) {
				return fmt.Errorf("%s was written by wire-format version %d; this build reads version %d — "+
					"rebuild the snapshot with this release's rtroute -save", load, info.Version, rtroute.SnapshotVersion)
			}
			return fmt.Errorf("reading %s: %w", load, err)
		}
		fmt.Fprintf(w, "snapshot %s: scheme %s, n=%d (format v%d)\n", load, info.Kind, info.Nodes, info.Version)
		dep, err := rtroute.UnmarshalScheme(data)
		if err != nil {
			return fmt.Errorf("loading %s: %w", load, err)
		}
		sys, err = rtroute.NewSystem(dep.Graph(), dep.Naming())
		if err != nil {
			return err
		}
		sch = dep
		maxB, avgB := 0, 0.0
		for v := 0; v < dep.Graph().N(); v++ {
			b := dep.EncodedSize(rtroute.NodeID(v))
			avgB += float64(b)
			if b > maxB {
				maxB = b
			}
		}
		avgB /= float64(dep.Graph().N())
		fmt.Fprintf(w, "restored %s from %s (%d bytes): %d nodes / %d edges; encoded state max %d B/node, avg %.1f B/node\n",
			dep.SchemeName(), load, len(data), dep.Graph().N(), dep.Graph().M(), maxB, avgB)
	} else {
		rng := rand.New(rand.NewSource(seed))
		var (
			g   *rtroute.Graph
			err error
		)
		if loadGraph != "" {
			f, err := os.Open(loadGraph)
			if err != nil {
				return err
			}
			defer f.Close()
			g, err = rtroute.ReadGraph(f)
			if err != nil {
				return fmt.Errorf("loading %s: %w", loadGraph, err)
			}
			family = loadGraph
		} else {
			g, err = graph.Generate(family, n, 8, rng)
			if err != nil {
				return err
			}
		}
		sys, err = rtroute.NewSystem(g, rtroute.RandomNaming(g.N(), rng))
		if err != nil {
			return err
		}
		kind, err := buildKind(schemeName)
		if err != nil {
			return err
		}
		sch, err = sys.Build(kind, rtroute.WithSeed(seed), rtroute.WithK(k))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "built %s over %d nodes / %d edges (%s graph); max table %d words, avg %.1f\n",
			sch.SchemeName(), g.N(), g.M(), family, sch.MaxTableWords(), sch.AvgTableWords())
	}

	if save != "" {
		blob, nodeSizes, err := rtroute.MarshalSchemeSizes(sch)
		if err != nil {
			return err
		}
		if err := os.WriteFile(save, blob, 0o644); err != nil {
			return err
		}
		maxB, total := 0, 0
		for _, b := range nodeSizes {
			total += b
			if b > maxB {
				maxB = b
			}
		}
		fmt.Fprintf(w, "saved %s (%d bytes): per-node state max %d B, avg %.1f B; shared envelope %d B\n",
			save, len(blob), maxB, float64(total)/float64(len(nodeSizes)), len(blob)-total)
		return nil
	}

	g := sys.Graph
	if all {
		start := time.Now()
		stats, err := rtroute.MeasureScheme(sys, sch, g.N()*(g.N()-1), seed)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		fmt.Fprintf(w, "pairs: %d  max stretch: %.3f  mean: %.3f  p99: %.3f  max header: %d words\n",
			stats.Pairs, stats.Max, stats.Mean, stats.P99, stats.MaxHeaderWords)
		// Timing goes to stderr: stdout stays byte-identical across runs
		// (the determinism contract scripted diffs rely on).
		fmt.Fprintf(os.Stderr, "measured in %v (%.0f roundtrips/s, single goroutine, reused header)\n",
			elapsed.Round(time.Millisecond), float64(stats.Pairs)/elapsed.Seconds())
		return nil
	}

	if int(src) >= g.N() || int(dst) >= g.N() || src < 0 || dst < 0 {
		return fmt.Errorf("names must be in [0,%d)", g.N())
	}
	tr, err := sch.Roundtrip(src, dst)
	if err != nil {
		return err
	}
	r := sys.R(src, dst)
	fmt.Fprintf(w, "roundtrip %d -> %d -> %d\n", src, dst, src)
	fmt.Fprintf(w, "  optimal roundtrip distance: %d\n", r)
	fmt.Fprintf(w, "  routed weight:  %d (out %d + back %d)\n", tr.Weight(), tr.Out.Weight, tr.Back.Weight)
	fmt.Fprintf(w, "  hops:           %d (out %d + back %d)\n", tr.Hops(), tr.Out.Hops, tr.Back.Hops)
	fmt.Fprintf(w, "  stretch:        %.3f\n", sys.Stretch(src, dst, tr))
	fmt.Fprintf(w, "  max header:     %d words\n", tr.MaxHeaderWords())
	if verbose {
		fmt.Fprintf(w, "  out path  (topological ids): %v\n", tr.Out.Path)
		fmt.Fprintf(w, "  back path (topological ids): %v\n", tr.Back.Path)
	}
	return nil
}

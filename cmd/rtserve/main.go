// Command rtserve runs one shard of a networked routing cluster: it
// restores a scheme snapshot (rtroute -save), takes ownership of its
// placement slice of the per-node tables, listens for wire frames on
// its address, and serves forever — forwarding local hops with
// shard-local state only and shipping boundary-crossing packets to the
// peer daemons named in -addrs. Every daemon computes the identical
// deterministic placement from its own copy of the snapshot, so the
// cluster needs no coordinator.
//
// A two-shard cluster on one machine:
//
//	rtroute -n 64 -scheme stretch6 -save s6.rtwf
//	rtserve -shard 0 -addrs 127.0.0.1:7070,127.0.0.1:7071 -load s6.rtwf &
//	rtserve -shard 1 -addrs 127.0.0.1:7070,127.0.0.1:7071 -load s6.rtwf &
//	rtroute -connect 127.0.0.1:7070 -src 3 -dst 17
//	rtroute -connect 127.0.0.1:7070 -pairs 20000 -window 256
//
// Packets cross shards as fixed-layout flight frames (patched in place
// on clean crossings, labels decoded only at the owning endpoints), and
// clients may keep a window of tagged roundtrips in flight — the
// daemons complete them out of order. A peer daemon that dies fails
// sends fast (the shard counts and drops) while the link redials in the
// background; it recovers when the daemon returns.
//
// Every daemon carries a telemetry sink; -http exposes it:
//
//	rtserve ... -http 127.0.0.1:8070 -trace-every 64 &
//	curl 127.0.0.1:8070/metrics                    # live counters, JSON
//	curl 127.0.0.1:8070/metrics?format=prometheus  # same, scrape format
//	curl 127.0.0.1:8070/trace?rt=1                 # recorded hop events
//	go tool pprof 127.0.0.1:8070/debug/pprof/profile
//
// Stop a daemon with SIGINT/SIGTERM: it stops accepting new
// connections, drains in-flight roundtrips until its counters go quiet
// (bounded by -drain), then closes and prints its final stats snapshot.
// A second signal skips the drain.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rtroute"
	"rtroute/internal/cluster"
	"rtroute/internal/core"
	"rtroute/internal/telemetry"
	"rtroute/internal/wire"
)

func main() {
	var (
		shard     = flag.Int("shard", 0, "this daemon's shard index into -addrs")
		addrsSpec = flag.String("addrs", "", "comma-separated shard addresses (host:port); one entry per shard")
		load      = flag.String("load", "", "scheme snapshot to serve (wire format, from rtroute -save)")
		placement = flag.String("placement", "contiguous", "node partition: contiguous|hash|rtz")
		batch     = flag.Int("batch", 64, "mailbox dequeue batch size")
		httpAddr  = flag.String("http", "", "serve /metrics, /trace and /debug/pprof on this address (empty = off)")
		traceEach = flag.Int("trace-every", 0, "record hop traces for roundtrip tags rt with rt%N==1 (0 = off)")
		sample    = flag.Int("sample-every", 16, "sample stage timing on every k-th mailbox batch (<0 = off)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain bound")
		repair    = flag.String("repair", "", "arm online repair with this build seed (must equal the -seed given to rtroute -save): churn frames rebuild the owned table slice between two served batches; empty = serve frozen tables")
		repairK   = flag.Int("repair-k", 2, "with -repair: tradeoff parameter of the rebuilt scheme (exstretch/poly/hop)")
	)
	flag.Parse()
	if err := run(*shard, *addrsSpec, *load, *placement, *batch,
		*httpAddr, *traceEach, *sample, *drain, *repair, *repairK); err != nil {
		fmt.Fprintln(os.Stderr, "rtserve:", err)
		os.Exit(1)
	}
}

func run(shard int, addrsSpec, load, placement string, batch int,
	httpAddr string, traceEvery, sampleEvery int, drain time.Duration,
	repairSpec string, repairK int) error {
	if load == "" {
		return fmt.Errorf("-load is required (snapshot from rtroute -save)")
	}
	addrs := strings.Split(addrsSpec, ",")
	if addrsSpec == "" || len(addrs) < 1 {
		return fmt.Errorf("-addrs is required (comma-separated, one address per shard)")
	}
	if shard < 0 || shard >= len(addrs) {
		return fmt.Errorf("-shard %d outside the %d-address list", shard, len(addrs))
	}
	data, err := os.ReadFile(load)
	if err != nil {
		return err
	}
	info, err := wire.PeekSnapshot(data)
	if err != nil {
		return fmt.Errorf("reading %s: %w", load, err)
	}
	fmt.Printf("snapshot %s: scheme %s, n=%d (format v%d)\n", load, info.Kind, info.Nodes, info.Version)
	dep, err := wire.UnmarshalScheme(data)
	if err != nil {
		return fmt.Errorf("loading %s: %w", load, err)
	}
	place, err := cluster.NewPlacement(dep, len(addrs), cluster.Policy(placement))
	if err != nil {
		return err
	}
	view, err := dep.ShardView(shard, place.Owner)
	if err != nil {
		return err
	}
	var repairHook func(uint64, []rtroute.ChurnEvent) error
	if repairSpec != "" {
		seed, err := strconv.ParseInt(repairSpec, 10, 64)
		if err != nil {
			return fmt.Errorf("-repair: %w", err)
		}
		rep, err := armRepair(dep, view, seed, repairK)
		if err != nil {
			return fmt.Errorf("arming repair: %w", err)
		}
		repairHook = rep.Repair
		fmt.Printf("shard %d: online repair armed (build seed %d, k %d)\n", shard, seed, repairK)
	}
	dep.Graph().Seal()
	tr, err := cluster.ListenTCP(shard, addrs)
	if err != nil {
		return err
	}

	// The sink is always attached — its idle cost is one predicate per
	// frame and one struct copy per batch — so /metrics can be consulted
	// (and the final snapshot printed) whether or not -http is set.
	sink := telemetry.New(telemetry.Config{
		Shards: []int{shard}, SampleEvery: sampleEvery, TraceEvery: traceEvery,
	})
	sink.RegisterGauge("peer_downs", func() float64 { d, _ := tr.LinkStats(); return float64(d) })
	sink.RegisterGauge("link_redials", func() float64 { _, r := tr.LinkStats(); return float64(r) })
	sink.RegisterGauge("socket_writes_total", func() float64 { w, _ := tr.WriteStats(); return float64(w) })
	sink.RegisterGauge("frames_written_total", func() float64 { _, f := tr.WriteStats(); return float64(f) })
	sink.RegisterGauge("read_allocs_total", func() float64 { return float64(tr.ReadAllocs()) })

	sh := cluster.NewShard(view, place, tr, cluster.Options{
		Batch: batch, Sink: sink, SinkShard: 0, Repair: repairHook,
	})
	if repairHook != nil {
		sink.RegisterGauge("churn_drops_total", func() float64 { d, _, _, _ := sh.ChurnStats(); return float64(d) })
		sink.RegisterGauge("churn_misroutes_total", func() float64 { _, m, _, _ := sh.ChurnStats(); return float64(m) })
		sink.RegisterGauge("churn_repairs_total", func() float64 { _, _, r, _ := sh.ChurnStats(); return float64(r) })
		sink.RegisterGauge("churn_repair_ns_mean", func() float64 {
			_, _, r, ns := sh.ChurnStats()
			if r == 0 {
				return 0
			}
			return float64(ns) / float64(r)
		})
	}
	fmt.Printf("shard %d/%d serving %d of %d nodes (%s placement) on %s\n",
		shard, len(addrs), view.NodeCount(), dep.Graph().N(), place.Policy, tr.Addr())

	if httpAddr != "" {
		srv, bound, err := telemetry.Serve(httpAddr, sink, identity(shard, len(addrs), tr.Addr(), dep))
		if err != nil {
			return fmt.Errorf("telemetry http: %w", err)
		}
		defer srv.Close()
		fmt.Printf("telemetry on http://%s/metrics (trace-every %d, sample-every %d)\n",
			bound, traceEvery, sampleEvery)
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Printf("shard %d: draining (next signal forces exit)\n", shard)
		tr.CloseAccept()
		go func() { // second signal: skip the drain
			<-sigc
			tr.Close()
		}()
		drainThenClose(tr, sink, drain)
	}()

	err = sh.Serve()
	st := sh.Stats()
	fmt.Printf("shard %d stopped: %d roundtrips completed here, %d hops, %d frames in, %d frames out, %d errors\n",
		st.Shard, st.Packets, st.Hops, st.FramesIn, st.FramesOut, st.Errors)
	downs, redials := tr.LinkStats()
	fmt.Printf("links: %d peer-down transitions, %d redial attempts; trace events dropped: %d\n",
		downs, redials, sink.TraceDropped())
	if repairHook != nil {
		d, m, reps, ns := sh.ChurnStats()
		mean := time.Duration(0)
		if reps > 0 {
			mean = time.Duration(ns / reps)
		}
		fmt.Printf("churn: %d repairs applied (mean %v), %d roundtrips dropped, %d misrouted\n", reps, mean, d, m)
	}
	if table := sink.Snapshot().FormatStageTable(st.Packets, 0); table != "" {
		fmt.Printf("\nstage timing (per completed roundtrip)\n%s", table)
	}
	return err
}

// identity is the daemon's /metrics identity, built once before serving:
// a repair rebinds dep on the serving goroutine, so a scrape must never
// read through it. Churn never changes the node count.
func identity(shard, shards int, addr string, dep *rtroute.Deployment) map[string]any {
	return map[string]any{
		"shard": shard, "shards": shards, "addr": addr,
		"scheme": dep.Kind().String(), "nodes": dep.Graph().N(),
	}
}

// armRepair builds the daemon's private repair replica: a clone of the
// snapshot graph and the same scheme rebuilt from the operator-supplied
// build seed — so its tables start bit-identical to the snapshot every
// other daemon restored — bound to this daemon's serving deployment and
// owned slice. The replica's Repair is the shard's Options.Repair hook.
func armRepair(dep *rtroute.Deployment, view *core.ShardView, seed int64, k int) (*rtroute.Replica, error) {
	sys, err := rtroute.NewSystem(dep.Graph().Clone(), dep.Naming())
	if err != nil {
		return nil, err
	}
	rep, err := rtroute.NewReplica(sys, dep.Kind(), rtroute.BuildConfig{Seed: seed, K: k})
	if err != nil {
		return nil, err
	}
	rep.Bind(dep, view.Owns)
	return rep, nil
}

// drainThenClose watches the sink's counters until they hold still for
// two consecutive polls (the in-flight roundtrips have either completed
// or are stuck behind a dead peer) or the bound expires, then closes
// the transport for real.
func drainThenClose(tr *cluster.TCPTransport, sink *telemetry.Sink, bound time.Duration) {
	const poll = 100 * time.Millisecond
	deadline := time.Now().Add(bound)
	prev := sink.Snapshot().Totals
	quiet := 0
	for time.Now().Before(deadline) && quiet < 2 {
		time.Sleep(poll)
		cur := sink.Snapshot().Totals
		if cur == prev {
			quiet++
		} else {
			quiet = 0
		}
		prev = cur
	}
	tr.Close()
}

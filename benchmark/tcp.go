package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rtroute/internal/cluster"
	"rtroute/internal/core"
	"rtroute/internal/sim"
	"rtroute/internal/telemetry"
	"rtroute/internal/wire"
)

// tcpCluster is an in-process replica of a cmd/rtserve cluster: one
// "daemon" per shard, each wired exactly as cmd/rtserve/main.go:run
// wires itself, talking over loopback sockets, plus one client.
//
// Real rtserve subprocesses were tried as the timed path and rejected:
// three processes on two cores spread 50-60k rt/s at window 256 and
// 3.4-5.3k at window 1 between sets, against +-4% in process. So the
// harness mirrors run() line for line instead — every daemon restores
// its own Deployment from the snapshot bytes, derives the placement
// itself, Seals before it listens, and always carries a telemetry sink
// at the daemon's flag defaults (-workers 1 -batch 64 -sample-every 16
// -trace-every 0).
type tcpCluster struct {
	transports []*cluster.TCPTransport
	shards     []*cluster.Shard
	serving    sync.WaitGroup
	serveErrs  []error
	client     *cluster.Client
}

const (
	daemonWorkers     = 1
	daemonBatch       = 64
	daemonSampleEvery = 16
)

// startTCPCluster brings up `shards` daemons over the snapshot and
// dials a client into shard 0. span wraps each layer call for tracing.
func startTCPCluster(r *run, blob []byte, shards int) (*tcpCluster, error) {
	listeners := make([]net.Listener, shards)
	addrs := make([]string, shards)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, err
		}
		listeners[i], addrs[i] = ln, ln.Addr().String()
	}
	c := &tcpCluster{serveErrs: make([]error, shards)}
	for shard := 0; shard < shards; shard++ {
		// --- cmd/rtserve/main.go:run, minus flags, prints, -repair, -http ---
		var dep *core.Deployment
		err := r.span("wire.UnmarshalScheme", func() (err error) {
			dep, err = wire.UnmarshalScheme(blob)
			return err
		})
		if err != nil {
			return c.abort(listeners[shard:], err)
		}
		var place *cluster.Placement
		err = r.span("cluster.NewPlacement", func() (err error) {
			place, err = cluster.NewPlacement(dep, len(addrs), cluster.RTZAligned)
			return err
		})
		if err != nil {
			return c.abort(listeners[shard:], err)
		}
		view, err := dep.ShardView(shard, place.Owner)
		if err != nil {
			return c.abort(listeners[shard:], err)
		}
		dep.Graph().Seal()
		tr := cluster.NewTCPTransport(shard, listeners[shard], addrs)
		c.transports = append(c.transports, tr)
		sink := telemetry.New(telemetry.Config{
			Shards: []int{shard}, Workers: daemonWorkers,
			SampleEvery: daemonSampleEvery, TraceEvery: 0,
		})
		sink.RegisterGauge("peer_downs", func() float64 { d, _ := tr.LinkStats(); return float64(d) })
		sink.RegisterGauge("link_redials", func() float64 { _, r := tr.LinkStats(); return float64(r) })
		sh := cluster.NewShard(view, place, tr, cluster.Options{
			Workers: daemonWorkers, Batch: daemonBatch, Sink: sink, SinkShard: 0,
		})
		// ---
		c.shards = append(c.shards, sh)
		c.serving.Add(1)
		go func(i int) {
			defer c.serving.Done()
			c.serveErrs[i] = sh.Serve()
		}(shard)
	}
	client, err := cluster.DialClient(addrs[0])
	if err != nil {
		return c.abort(nil, err)
	}
	c.client = client
	kind, nodes, gotShards, err := client.Info()
	if err == nil && (kind != core.KindStretchSix || gotShards != shards) {
		err = fmt.Errorf("cluster reports scheme %v, %d nodes, %d shards; want StretchSix on %d shards", kind, nodes, gotShards, shards)
	}
	if err != nil {
		return c.abort(nil, err)
	}
	return c, nil
}

// abort tears down a half-built cluster.
func (c *tcpCluster) abort(unused []net.Listener, err error) (*tcpCluster, error) {
	for _, l := range unused {
		l.Close()
	}
	return nil, errors.Join(err, c.stop())
}

// stop closes the client and every daemon and waits for the serving
// goroutines; it reports the first daemon error.
func (c *tcpCluster) stop() error {
	if c.client != nil {
		c.client.Close()
	}
	for _, tr := range c.transports {
		tr.Close()
	}
	c.serving.Wait()
	return errors.Join(c.serveErrs...)
}

// stats sums the daemons' counters; call after stop.
func (c *tcpCluster) stats() (framesOut, errs int64) {
	for _, sh := range c.shards {
		st := sh.Stats()
		framesOut += st.FramesOut
		errs += st.Errors
	}
	return framesOut, errs
}

// verifyEvery is the sampling stride of the TCP correctness check: one
// completion in 64 keeps its leg totals for comparison afterwards.
const verifyEvery = 64

// tcpRep is one timed Roundtrips call observed wholly from outside the
// client.
type tcpRep struct {
	wall      time.Duration
	latencyNs []int64 // per pair, from when it was due (slotLatencies)
	completed int
	checked   []tcpCheck
}

type tcpCheck struct {
	pair      int
	out, back wire.LegTotals
}

// roundtrips drives the pairs through the client with `window` in
// flight. The completion callback does three stores and one clock
// read: which pair completed, when, and — one in verifyEvery — its leg
// totals.
func (c *tcpCluster) roundtrips(pairs []namePair, window int) (tcpRep, error) {
	req := make([]cluster.Pair, len(pairs))
	for i, p := range pairs {
		req[i] = cluster.Pair{Src: p.src, Dst: p.dst}
	}
	order := make([]int32, 0, len(pairs))
	at := make([]int64, 0, len(pairs))
	var rep tcpRep
	start := time.Now()
	err := c.client.Roundtrips(req, window, func(i int, out, back wire.LegTotals) error {
		order = append(order, int32(i))
		at = append(at, int64(time.Since(start)))
		if len(order)%verifyEvery == 0 {
			rep.checked = append(rep.checked, tcpCheck{i, out, back})
		}
		return nil
	})
	rep.wall = time.Since(start)
	rep.completed = len(order)
	if err != nil {
		return rep, err
	}
	if len(order) != len(pairs) {
		return rep, fmt.Errorf("client completed %d of %d roundtrips", len(order), len(pairs))
	}
	rep.latencyNs = slotLatencies(0, order, at, window)
	return rep, nil
}

// verify replays the sampled completions on ref and counts the
// disagreements.
func (rep *tcpRep) verify(ref sim.Plane, pairs []namePair) (bad int, first string) {
	for _, ck := range rep.checked {
		p := pairs[ck.pair]
		out, back, err := sim.RoundtripFlight(ref, p.src, p.dst, 0)
		if err == nil && int(ck.out.Hops) == out.Hops && ck.out.Weight == out.Weight &&
			int(ck.back.Hops) == back.Hops && ck.back.Weight == back.Weight {
			continue
		}
		if bad == 0 {
			first = fmt.Sprintf("roundtrip %d->%d: cluster legs %+v/%+v, sequential tracer %+v/%+v (err %v)",
				p.src, p.dst, ck.out, ck.back, out, back, err)
		}
		bad++
	}
	return bad, first
}

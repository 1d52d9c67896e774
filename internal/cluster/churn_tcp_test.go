package cluster

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtroute/internal/churn"
	"rtroute/internal/graph"
	"rtroute/internal/sim"
	"rtroute/internal/telemetry"
	"rtroute/internal/wire"
)

// localPair finds a (srcName, dstName) pair whose entire roundtrip path
// stays on shard 0, so it can be served with every peer dead.
func localPair(t *testing.T, dep interface {
	NodeOf(int32) graph.NodeID
	Graph() *graph.Graph
}, place *Placement, p sim.Plane) (int32, int32) {
	t.Helper()
	n := int32(p.Graph().N())
	for a := int32(0); a < n; a++ {
		if place.Shard(p.NodeOf(a)) != 0 {
			continue
		}
		for b := int32(0); b < n; b++ {
			if a == b || place.Shard(p.NodeOf(b)) != 0 {
				continue
			}
			tr, err := sim.Roundtrip(p, a, b, 0)
			if err != nil {
				t.Fatal(err)
			}
			local := true
			for _, leg := range []*sim.Trace{tr.Out, tr.Back} {
				for _, v := range leg.Path {
					if place.Shard(v) != 0 {
						local = false
						break
					}
				}
			}
			if local {
				return a, b
			}
		}
	}
	t.Fatal("no shard-local roundtrip pair exists under this placement")
	return 0, 0
}

// TestTCPPeerDeathMidRepair kills a peer daemon while another shard's
// repair holds the write fence. The contract under test: the repair is
// a shard-local act, so it completes and acks despite the dead peer;
// while the fence is held not a single roundtrip is served (no
// half-patched epoch is ever observable); and after the repair the
// shard keeps serving everything it can complete locally.
func TestTCPPeerDeathMidRepair(t *testing.T) {
	deps, _ := testDeployments(t, 32, 21)
	dep := deps["stretch6"]
	const shards = 2
	place, err := NewPlacement(dep, shards, Contiguous)
	if err != nil {
		t.Fatal(err)
	}
	dep.Graph().Seal()
	src, dst := localPair(t, dep, place, dep)
	want, err := sim.Roundtrip(dep, src, dst, 0)
	if err != nil {
		t.Fatal(err)
	}

	lns := make([]net.Listener, shards)
	addrs := make([]string, shards)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	trs := make([]*TCPTransport, shards)
	ss := make([]*Shard, shards)

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	var repairs atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		trs[i] = NewTCPTransport(i, lns[i], addrs)
		view, err := dep.ShardView(i, place.Owner)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Workers: 2}
		if i == 0 {
			opts.Repair = func(seq uint64, events []churn.Event) error {
				once.Do(func() { close(entered) })
				<-release
				repairs.Add(1)
				return nil
			}
		}
		ss[i] = NewShard(view, place, trs[i], opts)
		wg.Add(1)
		go func(sh *Shard) {
			defer wg.Done()
			if err := sh.Serve(); err != nil {
				t.Errorf("shard %d: %v", sh.Index(), err)
			}
		}(ss[i])
	}
	defer func() {
		trs[0].Close()
		wg.Wait()
	}()

	cl, err := DialClient(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if out, back, err := roundtrip(cl, src, dst); err != nil {
		t.Fatalf("warmup roundtrip: %v", err)
	} else if int(out.Hops) != want.Out.Hops || int(back.Hops) != want.Back.Hops {
		t.Fatalf("warmup roundtrip hops (%d,%d), tracer (%d,%d)", out.Hops, back.Hops, want.Out.Hops, want.Back.Hops)
	}

	// Ship a churn batch; the repair hook parks holding the write fence.
	ack := make(chan error, 1)
	go func() {
		ack <- cl.Churn(1, []churn.Event{{Kind: churn.WeightChange, U: 0, V: dep.Graph().Out(0)[0].To, Weight: 5, At: 0.25}})
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("repair hook never entered")
	}

	// A roundtrip issued mid-repair must not be served while the fence is
	// held: every worker parks on the read side until the repair is done.
	cl2, err := DialClient(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	probe := make(chan error, 1)
	go func() {
		_, _, err := roundtrip(cl2, src, dst)
		probe <- err
	}()
	select {
	case err := <-probe:
		t.Fatalf("roundtrip completed (err=%v) while the repair held the write fence", err)
	case <-time.After(200 * time.Millisecond):
	}

	// Kill the peer mid-repair, then let the repair finish. It must
	// complete — the repair touches only this shard's replica — and the
	// fenced roundtrip must then be served on the repaired epoch.
	trs[1].Close()
	close(release)
	select {
	case err := <-ack:
		if err != nil {
			t.Fatalf("churn ack after mid-repair peer death: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("churn batch never acked after mid-repair peer death")
	}
	if got := repairs.Load(); got != 1 {
		t.Fatalf("repair hook ran %d times, want 1", got)
	}
	if _, _, reps, _ := ss[0].ChurnStats(); reps != 1 {
		t.Fatalf("shard counted %d repairs, want 1", reps)
	}
	select {
	case err := <-probe:
		if err != nil {
			t.Fatalf("fenced roundtrip after repair: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fenced roundtrip never completed after the repair released")
	}

	// The survivor keeps serving local traffic with its only peer dead.
	if out, back, err := roundtrip(cl, src, dst); err != nil {
		t.Fatalf("roundtrip after peer death: %v", err)
	} else if int(out.Hops) != want.Out.Hops || out.Weight != want.Out.Weight ||
		int(back.Hops) != want.Back.Hops || back.Weight != want.Back.Weight {
		t.Fatalf("post-repair roundtrip (out %d/%d, back %d/%d) diverges from tracer (out %d/%d, back %d/%d)",
			out.Hops, out.Weight, back.Hops, back.Weight,
			want.Out.Hops, want.Out.Weight, want.Back.Hops, want.Back.Weight)
	}
}

// TestRepairFailurePoisonsShard locks the rollback half of the
// mid-repair contract: a Repair hook that fails must take the whole
// worker pool down — Serve returns the error, nothing keeps serving a
// possibly half-applied epoch — even in non-strict (daemon) mode.
func TestRepairFailurePoisonsShard(t *testing.T) {
	deps, _ := testDeployments(t, 32, 23)
	dep := deps["stretch6"]
	place, err := NewPlacement(dep, 1, Contiguous)
	if err != nil {
		t.Fatal(err)
	}
	dep.Graph().Seal()
	view, err := dep.ShardView(0, place.Owner)
	if err != nil {
		t.Fatal(err)
	}
	bus := NewChanBus(1, 16)
	sh := NewShard(view, place, bus.Endpoint(0), Options{
		Workers: 2, Strict: false,
		Repair: func(seq uint64, events []churn.Event) error {
			return errors.New("replica wedged")
		},
	})
	served := make(chan error, 1)
	go func() { served <- sh.Serve() }()

	if err := bus.SendBatch(0, []InFrame{{Data: wire.AppendChurnFrame(nil, 1, []churn.Event{
		{Kind: churn.WeightChange, U: 0, V: dep.Graph().Out(0)[0].To, Weight: 5, At: 0.25},
	})}}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if err == nil || !strings.Contains(err.Error(), "repair of churn batch 1") {
			t.Fatalf("Serve returned %v, want the poisoning repair error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still running 5s after a failed repair; the shard must stop, not keep serving")
	}
}

// TestTCPHostileChurnFrames: churn frames that decode cleanly but name
// something this graph cannot apply — a weight the graph refuses, an
// in-range node pair with no edge — are rejected when they arrive, before
// anything mutates. The repair hook is a real overlay (as rtserve
// -repair arms one), so a frame that got through would panic the prober
// or fail the repair and poison the shard. Each bad frame adds exactly
// one to Errors, the daemon keeps serving, and the next valid batch —
// still sequence number 1 — is repaired and acknowledged.
func TestTCPHostileChurnFrames(t *testing.T) {
	deps, _ := testDeployments(t, 32, 25)
	dep := deps["stretch6"]
	g := dep.Graph()
	ov, err := churn.NewOverlay(g.Clone(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var repaired atomic.Int32
	// Errors is read off the sink: workers publish at batch boundaries,
	// so the reading is race-free while they serve.
	sink := telemetry.New(telemetry.Config{Shards: []int{0}, Workers: 2})
	errorsCounted := func() int64 { return sink.Snapshot().Totals.Errors }
	c := startTCPShards(t, dep, 1, func(int) Options {
		return Options{Workers: 2, Sink: sink, Repair: func(seq uint64, events []churn.Event) error {
			_, err := ov.ApplyBatch(events)
			repaired.Add(1)
			return err
		}}
	}, nil)
	c.serve(t)
	defer c.stop()
	cl := c.dial(t)
	defer cl.Close()

	u, v := graph.NodeID(0), g.Out(0)[0].To
	var stranger graph.NodeID // in range, but (u, stranger) is no edge
	for g.HasEdge(u, stranger) || stranger == u {
		stranger++
	}
	valid := churn.Event{Kind: churn.WeightChange, U: u, V: v, Weight: 5, At: 0.25}
	for _, hostile := range []struct {
		name   string
		events []churn.Event
	}{
		{"weight 0 on a live edge", []churn.Event{{Kind: churn.WeightChange, U: u, V: v, Weight: 0, At: 0.5}}},
		{"weight DownWeight on a live edge", []churn.Event{{Kind: churn.WeightChange, U: u, V: v, Weight: graph.DownWeight, At: 0.5}}},
		{"edge-down on a non-edge after a valid event", []churn.Event{valid, {Kind: churn.EdgeDown, U: u, V: stranger, At: 0.5}}},
		{"weight change on a non-edge", []churn.Event{{Kind: churn.WeightChange, U: u, V: stranger, Weight: 5, At: 0.5}}},
	} {
		before := errorsCounted()
		if err := cl.write(wire.AppendChurnFrame(nil, 1, hostile.events)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := roundtrip(cl, 2, 9); err != nil {
			t.Fatalf("roundtrip after %s: %v", hostile.name, err)
		}
		for deadline := time.Now().Add(5 * time.Second); errorsCounted() == before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if got := errorsCounted(); got != before+1 {
			t.Fatalf("%s: errors %d -> %d, want one more", hostile.name, before, got)
		}
		if repaired.Load() != 0 {
			t.Fatalf("%s reached the repair hook", hostile.name)
		}
		if w, _ := ov.G.EdgeWeight(u, v); w != g.Out(0)[0].Weight {
			t.Fatalf("%s mutated the replica: (%d,%d) now weighs %d", hostile.name, u, v, w)
		}
	}
	if err := cl.Churn(1, []churn.Event{valid}); err != nil {
		t.Fatalf("valid batch after the hostile ones: %v", err)
	}
	if w, _ := ov.G.EdgeWeight(u, v); repaired.Load() != 1 || w != 5 {
		t.Fatalf("valid batch: %d repairs, (%d,%d) weighs %d, want 1 and 5", repaired.Load(), u, v, w)
	}
}

// roundtrip routes one pair through the client and returns its totals.
func roundtrip(cl *Client, src, dst int32) (out, back wire.LegTotals, err error) {
	err = cl.Roundtrips([]Pair{{Src: src, Dst: dst}}, 1, func(_ int, o, b wire.LegTotals) error {
		out, back = o, b
		return nil
	})
	return out, back, err
}

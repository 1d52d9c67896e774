package cluster

import (
	"encoding/binary"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtroute/internal/core"
	"rtroute/internal/telemetry"
	"rtroute/internal/wire"
)

// tcpTestCluster is a loopback cluster of shard daemons: one transport
// and one Shard per shard, wired as rtserve wires itself. Serving starts
// with serve, so a test can stage traffic in the inboxes first.
type tcpTestCluster struct {
	addrs  []string
	trs    []*TCPTransport
	shards []*Shard
	wg     sync.WaitGroup
}

// startTCPShards listens and assembles the shards. wrap, when non-nil,
// interposes on shard i's transport (an instrumented or adversarial
// endpoint); opts may differ per shard through it as well.
func startTCPShards(t *testing.T, dep *core.Deployment, shards int, opts func(i int) Options, wrap func(i int, tr *TCPTransport) Transport) *tcpTestCluster {
	t.Helper()
	place, err := NewPlacement(dep, shards, Contiguous)
	if err != nil {
		t.Fatal(err)
	}
	dep.Graph().Seal()
	c := &tcpTestCluster{addrs: make([]string, shards)}
	lns := make([]net.Listener, shards)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], c.addrs[i] = ln, ln.Addr().String()
	}
	for i := 0; i < shards; i++ {
		tr := NewTCPTransport(i, lns[i], c.addrs)
		c.trs = append(c.trs, tr)
		view, err := dep.ShardView(i, place.Owner)
		if err != nil {
			t.Fatal(err)
		}
		var ep Transport = tr
		if wrap != nil {
			ep = wrap(i, tr)
		}
		c.shards = append(c.shards, NewShard(view, place, ep, opts(i)))
	}
	return c
}

func (c *tcpTestCluster) serve(t *testing.T) {
	for _, sh := range c.shards {
		c.wg.Add(1)
		go func(sh *Shard) {
			defer c.wg.Done()
			if err := sh.Serve(); err != nil {
				t.Errorf("shard %d: %v", sh.Index(), err)
			}
		}(sh)
	}
}

func (c *tcpTestCluster) stop() {
	for _, tr := range c.trs {
		tr.Close()
	}
	c.wg.Wait()
}

func (c *tcpTestCluster) dial(t *testing.T) *Client {
	t.Helper()
	cl, err := DialClient(c.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func oneWorker(int) Options { return Options{Workers: 1} }

// randomPairs draws count distinct-endpoint name pairs over n names.
func randomPairs(n, count int, seed int64) []Pair {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]Pair, count)
	for i := range pairs {
		src := int32(rng.Intn(n))
		dst := int32(rng.Intn(n - 1))
		if dst >= src {
			dst++
		}
		pairs[i] = Pair{Src: src, Dst: dst}
	}
	return pairs
}

// TestTCPReadLoopDeliversFramesBeforeError: a peer that dies mid-frame
// has still delivered the complete frames before it, and each of them
// is a live roundtrip. Three whole segments and the head of a fourth
// arrive in one buffer fill; all three must come out of Recv.
func TestTCPReadLoopDeliversFramesBeforeError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTCPTransport(0, ln, []string{ln.Addr().String()})
	defer tr.Close()

	var stream []byte
	for _, body := range []string{"one", "two", "three"} {
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(body)))
		stream = append(stream, body...)
	}
	stream = binary.BigEndian.AppendUint32(stream, 100)
	stream = append(stream, "cut short"...)
	c, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(stream); err != nil {
		t.Fatal(err)
	}
	c.Close()

	var got []string
	timeout := time.After(5 * time.Second)
	for len(got) < 3 {
		select {
		case frames := <-tr.inbox:
			for _, f := range frames {
				got = append(got, string(f.Data))
			}
		case <-timeout:
			t.Fatalf("received %q, then nothing: frames parsed before the read error were discarded", got)
		}
	}
	if got[0] != "one" || got[1] != "two" || got[2] != "three" {
		t.Fatalf("received %q, want [one two three]", got)
	}
}

// countingTransport counts what a shard asks of its TCP transport, so
// the transport's own socket-write counters can be checked against the
// calls that must each have cost exactly one write.
type countingTransport struct {
	*TCPTransport
	replyCalls, replyFrames atomic.Int64
	sendCalls, sendFrames   atomic.Int64 // remote destinations only
	onRecv                  func()
}

func (c *countingTransport) ReplyBatch(conn uint64, frames []InFrame) error {
	c.replyCalls.Add(1)
	c.replyFrames.Add(int64(len(frames)))
	return c.TCPTransport.ReplyBatch(conn, frames)
}

func (c *countingTransport) SendBatch(to int, frames []InFrame) error {
	if to != c.shard {
		c.sendCalls.Add(1)
		c.sendFrames.Add(int64(len(frames)))
	}
	return c.TCPTransport.SendBatch(to, frames)
}

func (c *countingTransport) Recv() ([]InFrame, error) {
	if c.onRecv != nil {
		c.onRecv()
	}
	return c.TCPTransport.Recv()
}

// TestTCPBatchingByCount asserts the batching mechanism by counts, not
// by time. Every ReplyBatch and remote SendBatch is exactly one socket
// write. With a full window the daemon the client dialed answers it
// with many completions per write; with one roundtrip in flight every
// write carries exactly one frame, and a worker never re-enters Recv
// holding a frame back — a completion is on the wire within the batch
// that produced it.
func TestTCPBatchingByCount(t *testing.T) {
	deps, _ := testDeployments(t, 48, 13)
	dep := deps["stretch6"]
	for _, tc := range []struct {
		window, pairs int
		// minPerWrite gates completions per write on the client
		// connection at half of what the mechanism reaches: at window
		// 256 it read 22-38, typically 32, over GOMAXPROCS 1, 2 and 4
		// with and without -race, where writing each completion as it
		// finishes reads exactly 1.
		minPerWrite float64
	}{{256, 8192, 16}, {1, 300, 1}} {
		cts := make([]*countingTransport, 2)
		c := startTCPShards(t, dep, 2, oneWorker, func(i int, tr *TCPTransport) Transport {
			cts[i] = &countingTransport{TCPTransport: tr}
			return cts[i]
		})
		for i, sh := range c.shards {
			st := &sh.workers[0]
			cts[i].onRecv = func() {
				for to, frames := range st.pending {
					if len(frames) != 0 {
						t.Errorf("window %d: worker re-entered Recv with %d frames pending for shard %d", tc.window, len(frames), to)
					}
				}
				if len(st.replies) != 0 {
					t.Errorf("window %d: worker re-entered Recv with %d reply queues unflushed", tc.window, len(st.replies))
				}
			}
		}
		c.serve(t)
		cl := c.dial(t)
		pairs := randomPairs(dep.Graph().N(), tc.pairs, 31)
		completed := 0
		if err := cl.Roundtrips(pairs, tc.window, func(int, wire.LegTotals, wire.LegTotals) error {
			completed++
			return nil
		}); err != nil {
			t.Fatalf("window %d: %v", tc.window, err)
		}
		cl.Close()
		c.stop()
		if completed != len(pairs) {
			t.Fatalf("window %d: %d of %d roundtrips completed", tc.window, completed, len(pairs))
		}

		for i, ct := range cts {
			writes, frames := ct.WriteStats()
			if want := ct.replyCalls.Load() + ct.sendCalls.Load(); writes != want {
				t.Errorf("window %d shard %d: %d socket writes for %d batches handed to the transport", tc.window, i, writes, want)
			}
			if want := ct.replyFrames.Load() + ct.sendFrames.Load(); frames != want {
				t.Errorf("window %d shard %d: %d frames written, %d handed to the transport", tc.window, i, frames, want)
			}
			if tc.window == 1 && writes != frames {
				t.Errorf("window 1 shard %d: %d frames in %d writes, want exactly one frame per write", i, frames, writes)
			}
		}
		// Every completion reaches the client through shard 0's replies.
		calls, frames := cts[0].replyCalls.Load(), cts[0].replyFrames.Load()
		if frames != int64(len(pairs)) {
			t.Fatalf("window %d: %d reply frames for %d roundtrips", tc.window, frames, len(pairs))
		}
		perWrite := float64(frames) / float64(calls)
		t.Logf("window %d: %d completions in %d writes on the client connection, %.1f per write", tc.window, frames, calls, perWrite)
		if perWrite < tc.minPerWrite {
			t.Errorf("window %d: %.2f completions per write on the client connection, want >= %.0f", tc.window, perWrite, tc.minPerWrite)
		}
		if tc.window == 1 && calls != frames {
			t.Errorf("window 1: %d completions in %d writes, want exactly one per write", frames, calls)
		}
	}
}

// TestTCPReplyFailureCounted: a client that injects a window and
// vanishes leaves replies nobody can receive. Every one of them —
// completed here or passed through from the other shard, written early
// at the batch bound or at the final flush — is counted as an error,
// and the daemons go on serving the next client. The first client's
// connection is torn down before serving starts, so every reply write
// is refused, not swallowed by a kernel buffer.
func TestTCPReplyFailureCounted(t *testing.T) {
	deps, _ := testDeployments(t, 48, 13)
	dep := deps["stretch6"]
	sinks := make([]*telemetry.Sink, 2)
	c := startTCPShards(t, dep, 2, func(i int) Options {
		sinks[i] = telemetry.New(telemetry.Config{Shards: []int{i}, Workers: 1})
		return Options{Workers: 1, Sink: sinks[i]}
	}, nil)
	defer c.stop()

	const lost = 150 // two early writes at the batch bound and a remainder
	pairs := randomPairs(dep.Graph().N(), lost, 37)
	gone := c.dial(t)
	for at := 0; at < lost; at += injectBatchCap {
		var entries []wire.InjectEntry
		for i := at; i < min(at+injectBatchCap, lost); i++ {
			entries = append(entries, wire.InjectEntry{Src: pairs[i].Src, Dst: pairs[i].Dst, Rt: uint64(i) + 1})
		}
		if err := gone.write(wire.AppendInjectBatch(nil, wire.HomeClient, 0, entries)); err != nil {
			t.Fatal(err)
		}
	}
	gone.Close()
	// The read loop hands the injects to the inbox, meets the close and
	// retires the connection; only then may a worker look at them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.trs[0].mu.Lock()
		open := len(c.trs[0].conns)
		c.trs[0].mu.Unlock()
		if open == 0 && len(c.trs[0].inbox) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first client's connection never retired (%d open, %d batches queued)", open, len(c.trs[0].inbox))
		}
		time.Sleep(time.Millisecond)
	}
	c.serve(t)

	cl := c.dial(t)
	defer cl.Close()
	served := 0
	if err := cl.Roundtrips(randomPairs(dep.Graph().N(), 400, 41), 64, func(int, wire.LegTotals, wire.LegTotals) error {
		served++
		return nil
	}); err != nil {
		t.Fatalf("second client: %v", err)
	}
	if served != 400 {
		t.Fatalf("second client completed %d of 400 roundtrips", served)
	}
	// Completions owed to the first client may still be crossing back
	// from shard 1; the sinks publish at batch boundaries.
	var errs, packets int64
	for deadline = time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		errs, packets = 0, 0
		for _, s := range sinks {
			tot := s.Snapshot().Totals
			errs += tot.Errors
			packets += tot.Packets
		}
		if (errs == lost && packets == lost+400) || time.Now().After(deadline) {
			break
		}
	}
	if errs != lost || packets != lost+400 {
		t.Fatalf("%d roundtrips served and %d errors counted, want %d served and exactly the %d refused replies", packets, errs, lost+400, lost)
	}
}

// TestClusterZeroAllocsTCP is the socket fabric's allocation gate
// beside the channel bus's: whole-process mallocs per roundtrip — two
// daemons and the pipelined client, over loopback. The figure is the
// difference between a long and a short run on one warmed-up cluster
// divided by the extra roundtrips, so set-up, pool fill and the
// per-call slices cancel and the number of cores does not enter. With
// a length word, a buffer and often a batch slice allocated for every
// frame read, at every hop and at the client, it read 19.6; with the
// transport's frame pool and single frames written straight into the
// connection's write buffer it read 0.003-0.023 run alone, and a single
// allocation left on the per-roundtrip path would read 1.
//
// Under load — a two-core host with the other core spinning — it read
// 0.029-0.108 and failed 3 of 20 cold runs while each worker kept the
// slices and buffers it received in stacks of its own: a worker that
// read more batches than it wrote starved the read loops, which could
// draw only from the transport's pool. With one pool per transport,
// every batch's leftovers back in it before the flush, it reads
// -0.001 to 0.001 in 20 of 20 such runs (make stress) and -0.001 to
// 0.000 alone at GOMAXPROCS 1, 2 and 4. The tracked ledger — the
// workers' pool misses plus the read loops' (ReadAllocs) — must not
// exceed the process count it refines.
func TestClusterZeroAllocsTCP(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	deps, _ := testDeployments(t, 64, 7)
	c := startTCPShards(t, deps["stretch6"], 2, oneWorker, nil)
	defer c.stop()
	c.serve(t)
	cl := c.dial(t)
	defer cl.Close()
	const short, long = 20000, 60000
	pairs := randomPairs(64, long, 43)
	// tracked is the ledger of known allocation sites: the workers' pool
	// misses and the read loops'.
	tracked := func() (n int64) {
		for i, sh := range c.shards {
			n += sh.Stats().Allocs + c.trs[i].ReadAllocs()
		}
		return n
	}
	run := func(n int) (mallocs uint64, misses int64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := tracked()
		if err := cl.Roundtrips(pairs[:n], 256, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, tracked() - t0
	}
	run(short) // warm-up: dials, pool fill, buffer growth
	a, ta := run(short)
	b, tb := run(long)
	perRT := (float64(b) - float64(a)) / (long - short)
	trackedRT := (float64(tb) - float64(ta)) / (long - short)
	t.Logf("%d mallocs (%d tracked) over %d roundtrips, %d (%d) over %d: %.3f process, %.3f tracked per roundtrip in steady state",
		a, ta, short, b, tb, long, perRT, trackedRT)
	if uint64(tb) > b {
		t.Fatalf("tracked allocs %d exceed process mallocs %d — the ledger overcounts", tb, b)
	}
	if perRT >= 0.1 {
		t.Fatalf("%.3f allocations per roundtrip on the TCP path in steady state, want amortized zero (< 0.1)", perRT)
	}
}

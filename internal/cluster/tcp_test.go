package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"rtroute/internal/sim"
	"rtroute/internal/telemetry"
	"rtroute/internal/wire"
)

// TestTCPFlappingPeer locks the peer link state machine: a link that
// was up and breaks must fail sends fast with *PeerDownError — not
// block the send path in the dial-retry loop — and must recover on its
// own once the peer is back, via the background redialer.
func TestTCPFlappingPeer(t *testing.T) {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{lnA.Addr().String(), lnB.Addr().String()}
	trA := NewTCPTransport(0, lnA, addrs)
	defer trA.Close()
	trB := NewTCPTransport(1, lnB, addrs)

	frame := []byte("ping")
	if err := trA.Send(1, frame); err != nil {
		t.Fatalf("send on fresh link: %v", err)
	}
	if got, err := trB.Recv(); err != nil || string(got[0].Data) != "ping" {
		t.Fatalf("recv on fresh link: %v %q", err, got)
	}

	// Kill the peer. The established link keeps absorbing writes until
	// the kernel surfaces the reset, so spin until the failure lands —
	// it must be the typed error, and it must arrive well before the
	// inline dial-retry budget (the old behavior blocked here for
	// tcpDialRetries * tcpDialBackoff = 10s).
	trB.Close()
	var sendErr error
	start := time.Now()
	for time.Since(start) < 5*time.Second {
		if sendErr = trA.Send(1, frame); sendErr != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	var down *PeerDownError
	if !errors.As(sendErr, &down) {
		t.Fatalf("send to dead peer: got %v, want *PeerDownError", sendErr)
	}
	if down.Shard != 1 {
		t.Fatalf("PeerDownError.Shard = %d, want 1", down.Shard)
	}
	if downs, _ := trA.LinkStats(); downs < 1 {
		t.Fatalf("LinkStats peerDowns = %d after a link broke, want >= 1", downs)
	}
	failStart := time.Now()
	if err := trA.Send(1, frame); !errors.As(err, &down) {
		t.Fatalf("send while down: got %v, want *PeerDownError", err)
	}
	if d := time.Since(failStart); d > tcpDialBackoff {
		t.Fatalf("send while down took %v; must fail fast, not redial inline", d)
	}

	// Bring the peer back on the same address. The background redialer
	// owns recovery: keep probing with sends until one goes through.
	lnB2, err := net.Listen("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	trB2 := NewTCPTransport(1, lnB2, addrs)
	defer trB2.Close()
	recovered := false
	for start = time.Now(); time.Since(start) < 10*time.Second; {
		if err := trA.Send(1, frame); err == nil {
			recovered = true
			break
		} else if !errors.As(err, &down) {
			t.Fatalf("send during recovery: got %v, want *PeerDownError", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("link never recovered after peer restart")
	}
	if got, err := trB2.Recv(); err != nil || string(got[0].Data) != "ping" {
		t.Fatalf("recv after recovery: %v %q", err, got)
	}
	// Recovery goes through the background redialer only (the inline
	// path fails fast once a link has been up), so the redial counter
	// must have moved; the down counter records the one transition.
	downs, redials := trA.LinkStats()
	if redials < 1 {
		t.Fatalf("LinkStats redials = %d after background recovery, want >= 1", redials)
	}
	if downs < 1 {
		t.Fatalf("LinkStats peerDowns = %d after flap, want >= 1", downs)
	}
}

// TestTCPLoopback is the network smoke test: two shard daemons over
// loopback TCP, a client dialed into shard 0, and roundtrips whose
// certified totals must match the single-process tracer — including
// injects for sources shard 0 does not own (the re-route path) and
// completions that travel shard 1 -> shard 0 -> client.
func TestTCPLoopback(t *testing.T) {
	deps, _ := testDeployments(t, 32, 9)
	dep := deps["stretch6"]
	const shards = 2
	// Shard 0's errors are read off a sink: workers publish at batch
	// boundaries, so the reading is race-free while they serve, and the
	// worker that drops a bad frame need not be the one that answers the
	// next roundtrip, so the count is awaited.
	sink := telemetry.New(telemetry.Config{Shards: []int{0}, Workers: 2})
	errorsAfter := func(before int64) int64 {
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if got := sink.Snapshot().Totals.Errors; got != before {
				return got
			}
		}
		return before
	}
	c := startTCPShards(t, dep, shards, func(i int) Options {
		if i == 0 {
			return Options{Workers: 2, Sink: sink}
		}
		return Options{Workers: 2}
	}, nil)
	c.serve(t)
	defer c.stop()

	cl := c.dial(t)
	defer cl.Close()
	kind, nodes, nshards, err := cl.Info()
	if err != nil {
		t.Fatal(err)
	}
	if kind != dep.Kind() || nodes != 32 || nshards != shards {
		t.Fatalf("info reported (%v, %d, %d), want (%v, 32, %d)", kind, nodes, nshards, dep.Kind(), shards)
	}

	// Pair names chosen so that both shards see injects: names are a
	// random permutation, so walking all (src, src+7) pairs covers
	// sources on both sides of the partition.
	served := 0
	for src := int32(0); src < 32; src += 3 {
		dst := (src + 7) % 32
		out, back, err := roundtrip(cl, src, dst)
		if err != nil {
			t.Fatalf("roundtrip %d->%d: %v", src, dst, err)
		}
		want, err := sim.Roundtrip(dep, src, dst, 0)
		if err != nil {
			t.Fatal(err)
		}
		if int(out.Hops) != want.Out.Hops || out.Weight != want.Out.Weight ||
			int(back.Hops) != want.Back.Hops || back.Weight != want.Back.Weight {
			t.Fatalf("roundtrip %d->%d: cluster (out %d/%d, back %d/%d), tracer (out %d/%d, back %d/%d)",
				src, dst, out.Hops, out.Weight, back.Hops, back.Weight,
				want.Out.Hops, want.Out.Weight, want.Back.Hops, want.Back.Weight)
		}
		if int(out.MaxHeaderWords) != want.Out.MaxHeaderWords || int(back.MaxHeaderWords) != want.Back.MaxHeaderWords {
			t.Fatalf("roundtrip %d->%d: header words (%d,%d), tracer (%d,%d)",
				src, dst, out.MaxHeaderWords, back.MaxHeaderWords,
				want.Out.MaxHeaderWords, want.Back.MaxHeaderWords)
		}
		served++
	}
	if served == 0 {
		t.Fatal("no roundtrips served")
	}

	// A garbage segment must not take the daemon down: the shard drops
	// it (non-strict) and keeps serving this very connection.
	if err := cl.write([]byte("not a frame")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := roundtrip(cl, 1, 2); err != nil {
		t.Fatalf("roundtrip after garbage frame: %v", err)
	}
	if errorsAfter(0) == 0 {
		t.Fatal("garbage frame was not counted as an error")
	}

	// Hostile but well-formed frames must not take the daemon down
	// either: a flight frame with an out-of-range At (would index the
	// placement), one with negative leg totals (would inflate the hop
	// budget), and the retired kind-1 packet frame an old peer might
	// still send. Each is counted and the connection keeps serving.
	h, err := dep.NewHeader(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	badAt, err := wire.AppendFlightFrame(nil, &wire.Frame{
		Kind: wire.FrameFlight, SrcName: 1, DstName: 2, At: -7, Home: wire.HomeLocal,
	}, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	negHops, err := wire.AppendFlightFrame(nil, &wire.Frame{
		Kind: wire.FrameFlight, SrcName: 1, DstName: 2, At: 0,
		Out:  wire.LegTotals{Hops: -1 << 30},
		Home: wire.HomeLocal,
	}, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	retired, err := wire.AppendFrame(nil, &wire.Frame{Kind: wire.FrameInject, SrcName: 1, DstName: 2, Home: wire.HomeClient})
	if err != nil {
		t.Fatal(err)
	}
	retired[6] = 1 // frame kind slot
	for _, hostile := range []struct {
		name string
		data []byte
	}{{"flight frame at node -7", badAt}, {"flight frame with negative hops", negHops}, {"retired kind-1 frame", retired}} {
		before := sink.Snapshot().Totals.Errors
		if err := cl.write(hostile.data); err != nil {
			t.Fatal(err)
		}
		if _, _, err := roundtrip(cl, 2, 9); err != nil {
			t.Fatalf("roundtrip after %s: %v", hostile.name, err)
		}
		if got := errorsAfter(before); got != before+1 {
			t.Fatalf("%s: errors %d -> %d, want one more", hostile.name, before, got)
		}
	}
}

// TestTCPPeerDeathDetectedByMonitor locks the dialed side's read loop:
// a peer that dies must be marked down by the monitor's blocking Read —
// with no writes issued at all — so the very first send after the death
// fails fast and typed instead of pumping writes into a dead socket
// until the kernel surfaces the reset. Also checks the symmetric half:
// a frame the peer writes back on the dialed link is delivered like
// accepted-side traffic.
func TestTCPPeerDeathDetectedByMonitor(t *testing.T) {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{lnA.Addr().String(), lnB.Addr().String()}
	trA := NewTCPTransport(0, lnA, addrs)
	defer trA.Close()
	trB := NewTCPTransport(1, lnB, addrs)

	if err := trA.Send(1, []byte("ping")); err != nil {
		t.Fatalf("send on fresh link: %v", err)
	}
	got, err := trB.Recv()
	if err != nil || string(got[0].Data) != "ping" {
		t.Fatalf("recv on fresh link: %v %q", err, got)
	}
	// The peer replies on the accepted conn — the same socket as A's
	// dialed link — and A's monitor must hand it to the inbox.
	if err := trB.ReplyBatch(got[0].Conn, []InFrame{{Data: []byte("pong")}}); err != nil {
		t.Fatalf("reply on accepted conn: %v", err)
	}
	if got, err := trA.Recv(); err != nil || string(got[0].Data) != "pong" {
		t.Fatalf("recv on dialed link: %v %q", err, got)
	}

	// Kill the peer and issue NO sends: the monitor alone must flip the
	// link down.
	trB.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if downs, _ := trA.LinkStats(); downs >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("monitor never marked the dead peer down (no writes issued)")
		}
		time.Sleep(5 * time.Millisecond)
	}
	start := time.Now()
	var down *PeerDownError
	if err := trA.Send(1, []byte("ping")); !errors.As(err, &down) {
		t.Fatalf("first send after peer death: got %v, want *PeerDownError", err)
	}
	if d := time.Since(start); d > tcpDialBackoff {
		t.Fatalf("first send after peer death took %v; must fail fast", d)
	}
}

// TestTCPPeerFlapMidBatch kills the peer while a SendBatch is wedged
// mid-write against full socket buffers. The monitor's read error closes
// the conn, which unblocks the in-flight write, so the wedged send must
// return *PeerDownError promptly — never hang.
func TestTCPPeerFlapMidBatch(t *testing.T) {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The peer is a raw listener that accepts and never reads, so the
	// sender's socket buffers fill and a batch write blocks in the kernel.
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{lnA.Addr().String(), sink.Addr().String()}
	trA := NewTCPTransport(0, lnA, addrs)
	defer trA.Close()

	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := sink.Accept(); err == nil {
			accepted <- c
		}
	}()

	big := make([]byte, 1<<20)
	done := make(chan error, 1)
	go func() {
		for {
			if err := trA.SendBatch(1, []InFrame{{Data: big}}); err != nil {
				done <- err
				return
			}
		}
	}()

	var peerConn net.Conn
	select {
	case peerConn = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("sender never dialed the peer")
	}
	// Give the sender time to wedge against the unread socket...
	time.Sleep(200 * time.Millisecond)
	// ...then kill the peer mid-batch: accepted conn and listener both.
	peerConn.Close()
	sink.Close()

	select {
	case err := <-done:
		var down *PeerDownError
		if !errors.As(err, &down) {
			t.Fatalf("mid-batch send after peer death: got %v, want *PeerDownError", err)
		}
		if down.Shard != 1 {
			t.Fatalf("PeerDownError.Shard = %d, want 1", down.Shard)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send still wedged 5s after mid-batch peer death; must fail typed, not hang")
	}
	if downs, _ := trA.LinkStats(); downs < 1 {
		t.Fatalf("LinkStats peerDowns = %d after mid-batch flap, want >= 1", downs)
	}
}

// TestClientAccountsDrops: a cluster repairing under churn may answer a
// roundtrip with a FrameDrop instead of a FrameDone. Roundtrips hands it
// to OnDrop once, by pair index, and keeps it out of each; with no
// OnDrop it fails, naming the roundtrip.
func TestClientAccountsDrops(t *testing.T) {
	pairs := []Pair{{Src: 3, Dst: 5}, {Src: 4, Dst: 6}}
	// serve is the daemon's half of the conn: it reads the one inject
	// batch and answers roundtrip 1 with a drop, roundtrip 2 with its
	// totals, in one write.
	serve := func(c net.Conn, errc chan<- error) {
		defer c.Close()
		data, err := readFrame(bufio.NewReader(c), nil)
		if err != nil {
			errc <- err
			return
		}
		var f wire.Frame
		var rts []uint64
		if err := wire.ForEachInject(data, &f, func(f *wire.Frame) error { rts = append(rts, f.Rt); return nil }); err != nil {
			errc <- err
			return
		}
		if len(rts) != 2 || rts[0] != 1 || rts[1] != 2 {
			errc <- fmt.Errorf("inject batch carries roundtrips %v, want [1 2]", rts)
			return
		}
		var out []byte
		for _, f := range []wire.Frame{
			{Kind: wire.FrameDrop, SrcName: 3, DstName: 5, Rt: 1, Reason: wire.DropUnroutable},
			{Kind: wire.FrameDone, SrcName: 4, DstName: 6, Rt: 2, Out: wire.LegTotals{Hops: 2, Weight: 7}, Back: wire.LegTotals{Hops: 3, Weight: 9}},
		} {
			b, err := wire.AppendFrame(nil, &f)
			if err != nil {
				errc <- err
				return
			}
			out = appendFrame(out, b)
		}
		_, err = c.Write(out)
		errc <- err
	}
	dial := func() (*Client, chan error) {
		client, server := net.Pipe()
		errc := make(chan error, 1)
		go serve(server, errc)
		return &Client{conn: client, rd: bufio.NewReader(client)}, errc
	}

	cl, errc := dial()
	var drops, done []int
	cl.OnDrop = func(i int, reason byte) error {
		if reason != wire.DropUnroutable {
			t.Errorf("OnDrop(%d) with reason %d, want %d", i, reason, wire.DropUnroutable)
		}
		drops = append(drops, i)
		return nil
	}
	err := cl.Roundtrips(pairs, 2, func(i int, out, back wire.LegTotals) error {
		if out.Weight+back.Weight != 16 {
			t.Errorf("pair %d: weight %d, want 16", i, out.Weight+back.Weight)
		}
		done = append(done, i)
		return nil
	})
	cl.Close()
	if err != nil || <-errc != nil {
		t.Fatalf("Roundtrips with OnDrop: %v", err)
	}
	if len(drops) != 1 || drops[0] != 0 || len(done) != 1 || done[0] != 1 {
		t.Fatalf("OnDrop got %v and each got %v, want [0] and [1]", drops, done)
	}

	cl, errc = dial()
	err = cl.Roundtrips(pairs, 2, nil)
	cl.Close()
	<-errc
	if err == nil || !strings.Contains(err.Error(), "roundtrip 1 dropped") {
		t.Fatalf("Roundtrips without OnDrop returned %v, want an error naming roundtrip 1", err)
	}
}

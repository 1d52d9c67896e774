package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"rtroute/internal/wire"
)

// oneWayTransport serves a shard one scripted round at a time: Recv
// hands out a round's first batch, TryRecv the rest, and ReplyBatch
// gives the written batch back to the pool as a socket write does and
// ends the round. The test fills the next round only once the worker
// has written, so the two never touch the pool at once and every count
// is deterministic.
type oneWayTransport struct {
	stock  framePool
	rounds chan [][]InFrame
	queued [][]InFrame
	wrote  chan int
	closed chan struct{}
	once   sync.Once
}

func (o *oneWayTransport) SendBatch(int, []InFrame) error {
	return errors.New("one-way transport has no peers")
}

func (o *oneWayTransport) Recv() ([]InFrame, error) {
	select {
	case round := <-o.rounds:
		o.queued = round[1:]
		return round[0], nil
	case <-o.closed:
		return nil, ErrClosed
	}
}

func (o *oneWayTransport) TryRecv() ([]InFrame, bool, error) {
	if len(o.queued) == 0 {
		return nil, false, nil
	}
	batch := o.queued[0]
	o.queued = o.queued[1:]
	return batch, true, nil
}

func (o *oneWayTransport) ReplyBatch(conn uint64, frames []InFrame) error {
	n := len(frames)
	o.stock.put(frames)
	o.wrote <- n
	return nil
}

func (o *oneWayTransport) Close() error {
	o.once.Do(func() { close(o.closed) })
	return nil
}

func (o *oneWayTransport) pool() *framePool { return &o.stock }

// TestOneWayFlowDrawsNoMisses drives the flow that used to drain the
// read side: a shard reads k batches for every one it writes. Each round
// the read side cuts k one-frame batches through the read loop's own
// readBatch, the shard's worker answers all k info requests in one
// write, and the written batch goes back to the pool. When the worker
// kept the slices it received, every round cost the read side k-1 fresh
// ones; with one pool every slice and buffer comes back, so after a
// warm-up round neither the worker's ledger nor the read side's counts
// a single miss.
func TestOneWayFlowDrawsNoMisses(t *testing.T) {
	deps, _ := testDeployments(t, 32, 5)
	dep := deps["stretch6"]
	place, err := NewPlacement(dep, 1, Contiguous)
	if err != nil {
		t.Fatal(err)
	}
	view, err := dep.ShardView(0, place.Owner)
	if err != nil {
		t.Fatal(err)
	}
	tr := &oneWayTransport{rounds: make(chan [][]InFrame), wrote: make(chan int), closed: make(chan struct{})}
	sh := NewShard(view, place, tr, Options{})
	served := make(chan error, 1)
	go func() { served <- sh.Serve() }()
	defer func() {
		tr.Close()
		if err := <-served; err != nil {
			t.Fatal(err)
		}
	}()

	req, err := wire.AppendFrame(nil, &wire.Frame{Kind: wire.FrameInfoReq})
	if err != nil {
		t.Fatal(err)
	}
	segment := appendFrame(nil, req)
	rd := hand{pool: &tr.stock}
	const k, warm, rounds = 8, 1, 500
	var allocs0, reads0 int64
	for r := 0; r < rounds; r++ {
		if r == warm {
			allocs0, reads0 = sh.Stats().Allocs, tr.stock.readAllocs.Load()
			if allocs0+reads0 == 0 {
				t.Fatalf("the warm-up round counted no miss: the ledgers do not see the pool")
			}
		}
		round := make([][]InFrame, k)
		for i := range round {
			batch, err := rd.readBatch(bufio.NewReader(bytes.NewReader(segment)), 1)
			if err != nil || len(batch) != 1 {
				t.Fatalf("round %d: read %d frames, %v; want one", r, len(batch), err)
			}
			round[i] = batch
		}
		tr.rounds <- round
		if n := <-tr.wrote; n != k {
			t.Fatalf("round %d: the shard wrote %d replies in one batch, want %d", r, n, k)
		}
	}
	allocs, reads := sh.Stats().Allocs-allocs0, tr.stock.readAllocs.Load()-reads0
	t.Logf("warm-up: %d worker and %d read misses; then %d rounds of %d batches in, 1 out: %d and %d",
		allocs0, reads0, rounds-warm, k, allocs, reads)
	if allocs != 0 || reads != 0 {
		t.Fatalf("%d worker and %d read-side misses after warm-up, want 0: the flow drains the pool", allocs, reads)
	}
}

// TestOversizedFrameNeverPooled: a frame above maxPooledFrame — a
// hostile segment, say — is read into a buffer of its own, and that
// buffer goes to the collector whichever way it comes back: from a
// worker's hand or after a socket write. The ordinary frame read beside
// it is kept.
func TestOversizedFrameNeverPooled(t *testing.T) {
	for _, via := range []string{"hand", "socket write"} {
		var p framePool
		h := hand{pool: &p}
		stream := append(appendFrame(nil, make([]byte, maxPooledFrame+1)), appendFrame(nil, []byte("ok"))...)
		batch, err := h.readBatch(bufio.NewReaderSize(bytes.NewReader(stream), 64<<10), 0)
		if err != nil || len(batch) != 2 {
			t.Fatalf("read %d frames, %v; want two", len(batch), err)
		}
		if cap(batch[0].Data) <= maxPooledFrame {
			t.Fatalf("a %d-byte frame was read into a %d-byte buffer", len(batch[0].Data), cap(batch[0].Data))
		}
		if via == "hand" {
			h.put(batch)
			h.release()
		} else {
			p.put(batch)
		}
		if len(p.bufs) != 1 || cap(p.bufs[0]) > maxPooledFrame {
			caps := make([]int, len(p.bufs))
			for i, b := range p.bufs {
				caps[i] = cap(b)
			}
			t.Fatalf("via %s the pool holds buffers of capacity %v, want only the small frame's", via, caps)
		}
	}
}

// TestWindowConservation: take == put is the window's conservation law.
// A leaked credit and a credit returned twice each fail Settled, naming
// the count.
func TestWindowConservation(t *testing.T) {
	w := NewWindow(8)
	if err := w.Settled(); err != nil {
		t.Fatalf("untouched window: %v", err)
	}
	n := w.Take(3, nil)
	w.Put(n - 1) // one roundtrip's credit leaks
	if got := w.Outstanding(); got != 1 {
		t.Fatalf("Outstanding = %d after a leak, want 1", got)
	}
	if err := w.Settled(); err == nil || !strings.Contains(err.Error(), "1 window credit(s) still out") {
		t.Fatalf("Settled with one credit leaked = %v", err)
	}
	w.Put(2) // the leaked credit, and one more
	if err := w.Settled(); err == nil || !strings.Contains(err.Error(), "1 window credit(s) returned twice") {
		t.Fatalf("Settled with one credit returned twice = %v", err)
	}
}

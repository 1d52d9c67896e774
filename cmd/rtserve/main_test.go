package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"rtroute"
	"rtroute/internal/churn"
	"rtroute/internal/cluster"
	"rtroute/internal/graph"
	"rtroute/internal/telemetry"
	"rtroute/internal/wire"
)

// TestMetricsScrapeDuringRepair wires one daemon as run does — a
// restored snapshot, a repair replica bound to it, a sink and its
// /metrics identity — and scrapes /metrics in a loop while the shard
// applies churn batches. Each repair rebinds the served Deployment on
// the shard's goroutine, so under -race a scrape that read the identity
// through it would be reported here.
func TestMetricsScrapeDuringRepair(t *testing.T) {
	const n, seed, k = 48, 7, 2
	g := graph.RandomSC(n, 3*n, 64, rand.New(rand.NewSource(3)))
	sys, err := rtroute.NewSystem(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := sys.Build(rtroute.StretchSix, rtroute.WithSeed(seed), rtroute.WithK(k))
	if err != nil {
		t.Fatal(err)
	}
	data, err := wire.MarshalScheme(sch)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := wire.UnmarshalScheme(data)
	if err != nil {
		t.Fatal(err)
	}
	place, err := cluster.NewPlacement(dep, 1, cluster.Contiguous)
	if err != nil {
		t.Fatal(err)
	}
	view, err := dep.ShardView(0, place.Owner)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := armRepair(dep, view, seed, k)
	if err != nil {
		t.Fatal(err)
	}
	u, v := graph.NodeID(0), dep.Graph().Out(0)[0].To
	dep.Graph().Seal()
	tr, err := cluster.ListenTCP(0, []string{"127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.New(telemetry.Config{Shards: []int{0}})
	sh := cluster.NewShard(view, place, tr, cluster.Options{Sink: sink, Repair: rep.Repair})
	served := make(chan error, 1)
	go func() { served <- sh.Serve() }()
	srv, bound, err := telemetry.Serve("127.0.0.1:0", sink, identity(0, 1, tr.Addr(), dep))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var scrapes int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get("http://" + bound + "/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			var root struct{ Nodes int }
			err = json.NewDecoder(resp.Body).Decode(&root)
			resp.Body.Close()
			if err != nil || root.Nodes != n {
				t.Errorf("scrape %d: nodes %d (%v), want %d", scrapes, root.Nodes, err, n)
				return
			}
			scrapes++
		}
	}()

	cl, err := cluster.DialClient(tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for seq := uint64(1); seq <= 6; seq++ {
		ev := churn.Event{Kind: churn.WeightChange, U: u, V: v, Weight: graph.Dist(2 + seq), At: float64(seq)}
		if err := cl.Churn(seq, []churn.Event{ev}); err != nil {
			t.Fatalf("churn batch %d: %v", seq, err)
		}
	}
	close(stop)
	wg.Wait()
	tr.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if _, _, reps, _ := sh.ChurnStats(); reps != 6 {
		t.Fatalf("%d repairs applied, want 6", reps)
	}
	t.Logf("%d scrapes across 6 repairs", scrapes)
}

package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"

	"rtroute"
)

// runChurnExp is the E17/E18 dynamic-topology experiment: the E19
// driver at one shard — a single replica repairing every node beside
// its serving pool, no crossings — on the low-dirty world (m = 32n,
// weights in [33,64]), where an event's affected set is a small
// fraction of the nodes and the delta rebuild is measurably cheaper
// than a full one.
func runChurnExp(n int, seed int64) error {
	fmt.Printf("# E17/E18 — dynamic topology: seeded churn, route repair, incremental maintenance\n")
	rng := rand.New(rand.NewSource(seed))
	g := rtroute.RandomSC(n, 32*n, 64, rng)
	// Remap weights into [33, 64]: with a max/min ratio under 2, no
	// single edge can dominate its head node's entry, so an event's
	// affected set reflects real path diversity instead of one funnel
	// edge that nearly every source routes through.
	for u := 0; u < n; u++ {
		for _, e := range g.Out(rtroute.NodeID(u)) {
			if err := g.SetEdgeWeight(rtroute.NodeID(u), e.To, 33+(e.Weight-1)%32); err != nil {
				return err
			}
		}
	}
	if err := runChurnCluster(g, rng, seed, 1, 33, 64); err != nil {
		return err
	}
	fmt.Println("delta-rebuild acceptance bar: mean dirty/batch <= 20% of nodes at n=1024 with one event per batch")
	fmt.Println("every roundtrip completed or failed typed (ErrUnroutable) — none hung; see DESIGN.md \"Dynamic topology\"")
	return nil
}

// runChurnClusterExp is the E19 experiment: seeded churn events ride
// the shard fabric as wire frames while the cluster serves roundtrips;
// every shard fences each batch and the last to do so repairs the
// fabric's one replica on every core, every batch is certified
// bit-identical to the sequential reference (and, with -certify, to a
// from-scratch build), and the report compares serving throughput under
// fire against the stable windows between batches, then takes each
// repair apart by stage.
func runChurnClusterExp(n int, seed int64) error {
	fmt.Printf("# E19 — cluster churn: online repair through the shard fabric, certified under fire\n")
	rng := rand.New(rand.NewSource(seed))
	g := rtroute.RandomSC(n, 3*n, 64, rng)
	if err := runChurnCluster(g, rng, seed, clusterShards, 0, 0); err != nil {
		return err
	}
	fmt.Println("repairs run behind per-shard epoch fences — in-flight roundtrips finish on the old epoch or fail typed, never hang")
	return nil
}

// runChurnCluster drives RunChurnCluster over g on the given fabric
// width and prints its report; minW/maxW bound weight-change draws
// (0 = the driver's defaults).
func runChurnCluster(g *rtroute.Graph, rng *rand.Rand, seed int64, shards int, minW, maxW rtroute.Dist) error {
	kind, err := schemeKind()
	if err != nil {
		return err
	}
	fmt.Printf("# n=%d seed=%d scheme=%s shards=%d placement=%s batches=%d events=%d packets=%d certify=%v\n\n",
		g.N(), seed, trafficScheme, shards, clusterPlacement, churnEpochs, churnEvents, trafficPackets, churnCertify)
	// Maintained schemes re-read distances after every mutation, so the
	// churn experiments always run on the lazy (mutation-tracking)
	// oracle regardless of -metric.
	sys, err := rtroute.NewSystemWith(g, rtroute.RandomNaming(g.N(), rng),
		rtroute.SystemConfig{Metric: rtroute.MetricLazy, LazyCacheRows: lazyCacheRows})
	if err != nil {
		return err
	}
	perPhase := trafficPackets / int64(2*churnEpochs)
	if perPhase < 1 {
		perPhase = 1
	}
	cfg := rtroute.ChurnClusterConfig{
		Kind:           kind,
		Build:          rtroute.BuildConfig{Seed: seed},
		Shards:         shards,
		Workers:        trafficWorkers,
		Placement:      rtroute.PlacementPolicy(clusterPlacement),
		ChurnSeed:      seed + 1,
		Batches:        churnEpochs,
		EventsPerBatch: churnEvents,
		FirePackets:    perPhase,
		StablePackets:  perPhase,
		MinWeight:      minW,
		MaxWeight:      maxW,
		InFlight:       clusterInFlight,
		Certify:        churnCertify,
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

	res, err := rtroute.RunChurnCluster(sys, cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	fmt.Printf("\nrepair by stage (ms of wall; the fabric's on every core, the reference's on one)\n%s\n", res.FormatStages())
	if churnOut != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(churnOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", churnOut)
	}
	return nil
}

package rtz

import (
	"math/rand"
	"testing"

	"rtroute/internal/graph"
)

// BenchmarkDirectPort times one direct-entry lookup over a built
// substrate at n = 1,024, probed with a pre-drawn stream of random
// (node, destination) pairs: "hit" draws each pair from all stored
// entries, "uniform" draws both ends from all nodes, so most lookups
// miss, as they do on a hop outside the destination's cluster.
// Run it with
//
//	go test ./internal/rtz -run '^$' -bench DirectPort
func BenchmarkDirectPort(b *testing.B) {
	s, g, _ := buildScheme(b, 1, 1024, 4*1024, 8)
	n := g.N()
	rng := rand.New(rand.NewSource(2))
	type probe struct{ at, dst graph.NodeID }
	var entries []probe
	for v, tab := range s.Tables {
		tab.DirectEntries(func(dst graph.NodeID, _ graph.PortID) { entries = append(entries, probe{graph.NodeID(v), dst}) })
	}
	for _, mode := range []string{"hit", "uniform"} {
		stream := make([]probe, 1<<16)
		for i := range stream {
			stream[i] = entries[rng.Intn(len(entries))]
			if mode == "uniform" {
				stream[i] = probe{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
			}
		}
		b.Run(mode, func(b *testing.B) {
			hits, i := 0, 0
			for b.Loop() {
				p := stream[i&(len(stream)-1)]
				if _, ok := s.Tables[p.at].DirectPort(p.dst); ok {
					hits++
				}
				i++
			}
			b.ReportMetric(float64(hits)/float64(i), "hits/op")
		})
	}
}

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
// miss, as they do on a hop outside the destination's cluster, and
// "miss" draws uniform pairs whose node stores no entry for the
// destination (by the entry list, not by DirectPort), so every lookup
// misses. A miss should cost no more than
// a hit: the direct-entry filter answers most misses alone.
// Run it with
//
//	go test ./internal/rtz -run '^$' -bench DirectPort
func BenchmarkDirectPort(b *testing.B) {
	s, g, _ := buildScheme(b, 1, 1024, 4*1024, 8)
	n := g.N()
	rng := rand.New(rand.NewSource(2))
	type probe struct{ at, dst graph.NodeID }
	var entries []probe
	stored := make(map[probe]bool)
	for v, tab := range s.Tables {
		tab.DirectEntries(func(dst graph.NodeID, _ graph.PortID) {
			p := probe{graph.NodeID(v), dst}
			entries = append(entries, p)
			stored[p] = true
		})
	}
	for _, mode := range []string{"hit", "uniform", "miss"} {
		stream := make([]probe, 1<<16)
		for i := range stream {
			switch mode {
			case "hit":
				stream[i] = entries[rng.Intn(len(entries))]
			case "uniform":
				stream[i] = probe{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
			case "miss":
				for {
					p := probe{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
					if !stored[p] {
						stream[i] = p
						break
					}
				}
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

package graph

import (
	"math/rand"
	"testing"
)

// BenchmarkEdgeByPort times one port resolution on the hop path's own
// terms: a RandomSC graph at n = 1,024 (five out-edges per node on
// average, AssignPorts labels, so every node is hashed), probed with a
// pre-drawn stream of uniformly random (node, live port) pairs, so
// consecutive lookups share no cache line. Run it with
//
//	go test ./internal/graph -run '^$' -bench EdgeByPort
func BenchmarkEdgeByPort(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := RandomSC(1024, 4*1024, 8, rng)
	type probe struct {
		u    NodeID
		port PortID
	}
	stream := make([]probe, 1<<16)
	for i := range stream {
		u := NodeID(rng.Intn(g.N()))
		stream[i] = probe{u, g.Out(u)[rng.Intn(g.OutDegree(u))].Port}
	}
	ports := g.PortTable()
	i := 0
	for b.Loop() {
		p := stream[i&(len(stream)-1)]
		if _, ok := ports.EdgeByPort(p.u, p.port); !ok {
			b.Fatalf("node %d port %d missed", p.u, p.port)
		}
		i++
	}
}

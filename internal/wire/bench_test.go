package wire

import (
	"math/rand"
	"testing"

	"rtroute/internal/core"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/sim"
)

// BenchmarkMarshalScheme times the encode layer alone: one snapshot of a
// built paper scheme at n = 256 per op, its sections encoded on every
// core. Run it with
//
//	go test ./internal/wire -run '^$' -bench MarshalScheme -benchmem
func BenchmarkMarshalScheme(b *testing.B) {
	planes, _ := testPlanes(b, 256, 1)
	for _, name := range []string{"stretch6", "exstretch", "polystretch"} {
		p := planes[name]
		b.Run(name, func(b *testing.B) {
			size := 0
			for b.Loop() {
				blob, err := MarshalScheme(p)
				if err != nil {
					b.Fatal(err)
				}
				size = len(blob)
			}
			b.ReportMetric(float64(size), "B/snapshot")
		})
	}
}

// BenchmarkRestoredRoundtrip times one roundtrip per op on each paper
// scheme (k = 2) restored from its snapshot, at n = 1,024 on a random
// digraph with 4n extra edges and weights in [1, 8], over a pre-drawn
// stream of uniform name pairs. One header is reused across the stream,
// as the traffic engine does. Run it with
//
//	go test ./internal/wire -run '^$' -bench RestoredRoundtrip
func BenchmarkRestoredRoundtrip(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomSC(n, 4*n, 8, rng)
	m := graph.AllPairs(g)
	perm := names.Random(n, rng)
	build := map[string]func() (sim.Plane, error){
		"stretch6": func() (sim.Plane, error) {
			return core.NewStretchSix(g, m, perm, rand.New(rand.NewSource(2)), core.Stretch6Config{})
		},
		"exstretch": func() (sim.Plane, error) {
			return core.NewExStretch(g, m, perm, rand.New(rand.NewSource(2)), core.ExStretchConfig{K: 2})
		},
		"polystretch": func() (sim.Plane, error) {
			return core.NewPolynomialStretch(g, m, perm, core.PolyConfig{K: 2})
		},
	}
	type pair struct{ src, dst int32 }
	stream := make([]pair, 1<<14)
	for i := range stream {
		src, dst := int32(rng.Intn(n)), int32(rng.Intn(n-1))
		if dst >= src {
			dst++
		}
		stream[i] = pair{src, dst}
	}
	for _, name := range []string{"stretch6", "exstretch", "polystretch"} {
		p, err := build[name]()
		if err != nil {
			b.Fatal(err)
		}
		blob, err := MarshalScheme(p)
		if err != nil {
			b.Fatal(err)
		}
		dep, err := UnmarshalScheme(blob)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var h sim.Header
			hops, i := 0, 0
			for b.Loop() {
				q := stream[i&(len(stream)-1)]
				var out, back sim.Flight
				out, back, h, err = sim.RoundtripFlightReusing(dep, h, q.src, q.dst, 0)
				if err != nil {
					b.Fatal(err)
				}
				hops += out.Hops + back.Hops
				i++
			}
			b.ReportMetric(float64(hops)/float64(i), "hops/rt")
		})
	}
}

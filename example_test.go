package rtroute_test

import (
	"fmt"
	"math/rand"

	"rtroute"
)

// ExampleNewSystem shows the minimal end-to-end flow: generate a network,
// attach an adversarial naming, build the stretch-6 scheme, and route.
func ExampleNewSystem() {
	rng := rand.New(rand.NewSource(1))
	g := rtroute.RandomSC(16, 64, 4, rng)
	sys, err := rtroute.NewSystem(g, rtroute.ReversedNaming(16))
	if err != nil {
		panic(err)
	}
	scheme, err := sys.Build(rtroute.StretchSix, rtroute.WithSeed(7))
	if err != nil {
		panic(err)
	}
	tr, err := scheme.Roundtrip(3, 12)
	if err != nil {
		panic(err)
	}
	fmt.Println(tr.Weight() <= 6*sys.R(3, 12))
	// Output: true
}

// ExampleSystem_Build demonstrates the §4 polynomial-tradeoff scheme —
// Build(Polynomial, WithK(2)) — and its worst-case bound 8k^2+4k-4.
func ExampleSystem_Build() {
	rng := rand.New(rand.NewSource(2))
	g := rtroute.Grid(4, 4, rng)
	sys, err := rtroute.NewSystem(g, rtroute.RandomNaming(16, rng))
	if err != nil {
		panic(err)
	}
	poly, err := sys.Build(rtroute.Polynomial, rtroute.WithK(2))
	if err != nil {
		panic(err)
	}
	tr, err := poly.Roundtrip(sys.Naming.Name(0), sys.Naming.Name(15))
	if err != nil {
		panic(err)
	}
	fmt.Println(tr.Weight() <= 36*sys.R(sys.Naming.Name(0), sys.Naming.Name(15)))
	// Output: true
}

// ExampleNewDirectory shows the §1.1.2 hashing reduction: self-chosen
// names land in {0..n-1} slots with small buckets.
func ExampleNewDirectory() {
	rng := rand.New(rand.NewSource(3))
	names := []string{"alice", "bob", "carol", "dave"}
	dir, err := rtroute.NewDirectory(names, 4, rng)
	if err != nil {
		panic(err)
	}
	slot := dir.Hash.Slot([]byte("alice"))
	found := false
	for _, nm := range dir.Bucket(slot) {
		if nm == "alice" {
			found = true
		}
	}
	fmt.Println(found, slot >= 0 && slot < 4)
	// Output: true true
}

// ExampleMeasureScheme aggregates stretch over sampled pairs — the
// building block of the DESIGN.md experiment index.
func ExampleMeasureScheme() {
	rng := rand.New(rand.NewSource(4))
	g := rtroute.RandomSC(24, 96, 5, rng)
	sys, err := rtroute.NewSystem(g, rtroute.RandomNaming(24, rng))
	if err != nil {
		panic(err)
	}
	scheme, err := sys.Build(rtroute.StretchSix, rtroute.WithSeed(5))
	if err != nil {
		panic(err)
	}
	stats, err := rtroute.MeasureScheme(sys, scheme, 200, 6)
	if err != nil {
		panic(err)
	}
	fmt.Println(stats.Pairs == 200, stats.Max <= 6, stats.Mean >= 1)
	// Output: true true true
}

// ExampleSystem_ServeCluster shards a scheme across an in-process
// 8-shard cluster: packets cross shard boundaries as wire-encoded
// frames, and the served aggregates equal a sequential replay's.
func ExampleSystem_ServeCluster() {
	rng := rand.New(rand.NewSource(8))
	g := rtroute.RandomSC(48, 192, 8, rng)
	sys, err := rtroute.NewSystem(g, rtroute.RandomNaming(48, rng))
	if err != nil {
		panic(err)
	}
	scheme, err := sys.Build(rtroute.StretchSix, rtroute.WithSeed(8))
	if err != nil {
		panic(err)
	}
	res, err := sys.ServeCluster(scheme, rtroute.ClusterConfig{
		Shards:    8,
		Placement: rtroute.PlaceRTZAligned,
		Packets:   2000,
		Seed:      1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Packets == 2000, res.CrossShard > 0, res.Stretch.Max <= 6)
	// Output: true true true
}

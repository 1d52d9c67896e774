package wire_test

import (
	"bytes"
	"fmt"
	"math/rand"

	"rtroute/internal/core"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/wire"
)

// Example snapshots a built scheme to wire bytes and restores it as a
// Deployment: the marshal/unmarshal roundtrip is canonical (re-encoding
// the restored deployment reproduces the blob byte for byte) and the
// restored tables forward identically.
func Example() {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomSC(16, 64, 8, rng)
	m := graph.AllPairs(g)
	perm := names.Random(16, rng)
	s6, err := core.NewStretchSix(g, m, perm, rand.New(rand.NewSource(5)), core.Stretch6Config{})
	if err != nil {
		fmt.Println(err)
		return
	}

	blob, err := wire.MarshalScheme(s6)
	if err != nil {
		fmt.Println(err)
		return
	}
	info, err := wire.PeekSnapshot(blob)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("snapshot: %s over %d nodes (format v%d)\n", info.Kind, info.Nodes, info.Version)

	dep, err := wire.UnmarshalScheme(blob)
	if err != nil {
		fmt.Println(err)
		return
	}
	again, err := wire.MarshalScheme(dep)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("canonical re-encode:", bytes.Equal(blob, again))
	// Output:
	// snapshot: stretch6 over 16 nodes (format v2)
	// canonical re-encode: true
}

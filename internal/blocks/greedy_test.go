package blocks

import (
	"math/rand"
	"reflect"
	"testing"

	"rtroute/internal/graph"
	"rtroute/internal/rtmetric"
)

func greedySpace(t *testing.T, n int, k int, seed int64) (*rtmetric.Space, *Assignment) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomSC(n, 4*n, 8, rng)
	m := graph.AllPairs(g)
	space := rtmetric.New(g, m, nil)
	a, err := Assign(space, k, rng, Config{Greedy: true})
	if err != nil {
		t.Fatal(err)
	}
	return space, a
}

// TestGreedyAssignmentCoverage: the deficiency-repair assignment must
// satisfy the same Lemma 1/4 property the sampled one does, at every
// level, and include every node's own block.
func TestGreedyAssignmentCoverage(t *testing.T) {
	for _, k := range []int{2, 3} {
		space, a := greedySpace(t, 96, k, 7)
		sizes := rtmetric.NeighborhoodSizes(96, k)
		if !a.verify(space, sizes, 0) {
			t.Fatalf("k=%d: greedy assignment fails the Lemma verifier", k)
		}
		for v := 0; v < 96; v++ {
			if !a.holdsBlock(graph.NodeID(v), a.U.BlockOf(int32(v))) {
				t.Fatalf("k=%d: node %d lost its own block", k, v)
			}
		}
	}
}

// TestGreedyAssignmentDeterministic: no randomness consumed — two runs
// produce identical sets, and the RNG's stream position is untouched.
func TestGreedyAssignmentDeterministic(t *testing.T) {
	_, a1 := greedySpace(t, 64, 2, 3)
	_, a2 := greedySpace(t, 64, 2, 3)
	if !reflect.DeepEqual(a1.Sets, a2.Sets) {
		t.Fatal("greedy assignment differs across identical runs")
	}
	g := graph.RandomSC(64, 256, 8, rand.New(rand.NewSource(3)))
	space := rtmetric.New(g, graph.AllPairs(g), nil)
	rng := rand.New(rand.NewSource(99))
	if _, err := Assign(space, 2, rng, Config{Greedy: true}); err != nil {
		t.Fatal(err)
	}
	if rng.Int63() != rand.New(rand.NewSource(99)).Int63() {
		t.Fatal("greedy assignment consumed randomness")
	}
}

// TestGreedySmallerThanSampled: the point of the greedy mode is leaner
// tables; on a representative instance it must not exceed the sampled
// distribution's average set size.
func TestGreedySmallerThanSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.RandomSC(128, 512, 8, rng)
	m := graph.AllPairs(g)
	space := rtmetric.New(g, m, nil)
	greedy, err := Assign(space, 2, rand.New(rand.NewSource(9)), Config{Greedy: true})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Assign(space, 2, rand.New(rand.NewSource(9)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if greedy.avgSetSize() > sampled.avgSetSize() {
		t.Fatalf("greedy avg set size %.2f exceeds sampled %.2f",
			greedy.avgSetSize(), sampled.avgSetSize())
	}
}

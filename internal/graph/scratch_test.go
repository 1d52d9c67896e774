package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refDijkstra is an independent O(n^2) reference implementation used to
// certify the radix-heap core. It settles nodes in (distance, id) order.
// Distances past Inf (paths over two DownWeight arcs) are kept: only an
// unreached node reads Inf.
func refDijkstra(g *Graph, root NodeID, reverse bool, inSet []bool) ([]Dist, []NodeID) {
	const unreached = math.MaxInt64
	n := g.N()
	dist := make([]Dist, n)
	parent := make([]NodeID, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = unreached
		parent[i] = -1
	}
	dist[root] = 0
	for {
		u := NodeID(-1)
		best := Dist(unreached)
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < best {
				best = dist[v]
				u = NodeID(v)
			}
		}
		if u < 0 {
			for v := range dist {
				if dist[v] == unreached {
					dist[v] = Inf
				}
			}
			return dist, parent
		}
		done[u] = true
		if reverse {
			for _, e := range g.In(u) {
				if inSet != nil && !inSet[e.From] {
					continue
				}
				if nd := dist[u] + e.Weight; nd < dist[e.From] {
					dist[e.From] = nd
					parent[e.From] = u
				}
			}
		} else {
			for _, e := range g.Out(u) {
				if inSet != nil && !inSet[e.To] {
					continue
				}
				if nd := dist[u] + e.Weight; nd < dist[e.To] {
					dist[e.To] = nd
					parent[e.To] = u
				}
			}
		}
	}
}

func checkDistances(t *testing.T, got SSSP, wantDist []Dist, label string) {
	t.Helper()
	for v := range wantDist {
		if got.Dist[v] != wantDist[v] {
			t.Fatalf("%s: dist[%d] = %d, want %d", label, v, got.Dist[v], wantDist[v])
		}
	}
}

// checkAgainstReference runs one search on s and requires its distances
// and parents to equal the reference's: both settle in (distance, id)
// order and keep the first tight arc, so parents agree exactly.
func checkAgainstReference(t *testing.T, s *SSSPScratch, g *Graph, root NodeID, reverse bool, inSet []bool, label string) {
	t.Helper()
	wantDist, wantParent := refDijkstra(g, root, reverse, inSet)
	var got SSSP
	switch {
	case reverse && inSet != nil:
		got = s.DijkstraRevRestricted(g, root, inSet)
	case reverse:
		got = s.DijkstraRev(g, root)
	case inSet != nil:
		got = s.DijkstraRestricted(g, root, inSet)
	default:
		got = s.Dijkstra(g, root)
	}
	checkDistances(t, got, wantDist, label)
	for v := range wantParent {
		if got.Parent[v] != wantParent[v] {
			t.Fatalf("%s: parent[%d] = %d, want %d", label, v, got.Parent[v], wantParent[v])
		}
	}
}

// setHeavy moves up to k random arcs of g to weights in (DownWeight/2,
// DownWeight], the keys of a radix heap's top buckets. Six such arcs
// keep every tentative distance below 2^63.
func setHeavy(g *Graph, k int, rng *rand.Rand) {
	for i := 0; i < k; i++ {
		u := NodeID(rng.Intn(g.N()))
		e := g.Out(u)[rng.Intn(g.OutDegree(u))]
		if err := g.SetEdgeWeight(u, e.To, DownWeight-rng.Int63n(DownWeight/2)); err != nil {
			panic(err)
		}
	}
}

// TestSSSPScratchMatchesReference runs every search variant against the
// reference on three families: weights 1-9, unit weights (where nearly
// every distance ties) and weights 1-9 with six arcs near DownWeight.
func TestSSSPScratchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSSSPScratch(0)
	for _, fam := range []struct {
		name  string
		maxW  Dist
		heavy int
	}{{"random", 9, 0}, {"unit", 1, 0}, {"heavy", 9, 6}} {
		for trial := 0; trial < 20; trial++ {
			n := 8 + rng.Intn(56)
			g := RandomSC(n, 3*n, fam.maxW, rng)
			setHeavy(g, fam.heavy, rng)
			if trial%2 == 1 {
				g.Seal()
			}
			root := NodeID(rng.Intn(n))
			// Restricted runs over a random induced subset containing root.
			inSet := make([]bool, n)
			for v := range inSet {
				inSet[v] = rng.Intn(3) > 0
			}
			inSet[root] = true
			for _, reverse := range []bool{false, true} {
				label := fmt.Sprintf("%s trial %d reverse %v", fam.name, trial, reverse)
				checkAgainstReference(t, s, g, root, reverse, nil, label)
				checkAgainstReference(t, s, g, root, reverse, inSet, label+" restricted")
			}
		}
	}
}

// FuzzSSSP decodes bytes into a graph of at most 24 nodes (some arcs at
// DownWeight, at most six so no distance overflows), a root, a direction
// and an optional member set, and requires the search's distances and
// parents to equal the reference's.
func FuzzSSSP(f *testing.F) {
	f.Add([]byte{5, 0, 0, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1, 4, 0, 1})
	f.Add([]byte{8, 3, 3, 0xff, 0, 1, 0, 1, 2, 2, 2, 0, 0, 0, 2, 7, 5, 6, 1, 6, 3, 1})
	f.Add([]byte{23, 7, 5, 0xaa, 0x55, 0xf0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 12, 13, 1, 14, 15, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%23
		root := NodeID(int(data[1]) % n)
		reverse, restricted, seal := data[2]&1 != 0, data[2]&2 != 0, data[2]&4 != 0
		data = data[3:]
		var inSet []bool
		if restricted {
			inSet = make([]bool, n)
			for v := range inSet {
				if v/8 < len(data) {
					inSet[v] = data[v/8]>>(v%8)&1 != 0
				}
			}
			inSet[root] = true
			data = data[min(len(data), (n+7)/8):]
		}
		g, heavy := New(n), 0
		for ; len(data) >= 3; data = data[3:] {
			u, v, w := NodeID(int(data[0])%n), NodeID(int(data[1])%n), Dist(data[2])
			if w == 0 && heavy < 6 {
				w, heavy = DownWeight, heavy+1
			}
			if u == v || w == 0 || g.HasEdge(u, v) {
				continue
			}
			if err := g.AddEdge(u, v, w); err != nil {
				t.Fatal(err)
			}
		}
		if seal {
			g.Seal()
		}
		checkAgainstReference(t, NewSSSPScratch(0), g, root, reverse, inSet, "fuzz")
	})
}

// TestSSSPScratchMatchesPackageDijkstra locks scratch reuse to the
// package entry points: same graph, same roots, byte-identical rows and
// parents (both paths share one core, so this is a reuse/epoch test).
func TestSSSPScratchMatchesPackageDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := RandomSC(64, 256, 8, rng)
	s := NewSSSPScratch(g.N())
	for root := 0; root < g.N(); root += 7 {
		want := Dijkstra(g, NodeID(root))
		got := s.Dijkstra(g, NodeID(root))
		for v := range want.Dist {
			if got.Dist[v] != want.Dist[v] || got.Parent[v] != want.Parent[v] {
				t.Fatalf("root %d node %d: scratch (%d,%d) != fresh (%d,%d)",
					root, v, got.Dist[v], got.Parent[v], want.Dist[v], want.Parent[v])
			}
		}
	}
}

// TestSSSPScratchReuseAcrossGraphs exercises the epoch-stamped reset: a
// scratch hopping between graphs of different sizes must never leak
// state from a previous run.
func TestSSSPScratchReuseAcrossGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := NewSSSPScratch(0)
	sizes := []int{40, 8, 64, 8, 40, 16}
	for trial, n := range sizes {
		g := RandomSC(n, 3*n, 5, rng)
		root := NodeID(trial % n)
		wantDist, _ := refDijkstra(g, root, false, nil)
		got := s.Dijkstra(g, root)
		if len(got.Dist) != n {
			t.Fatalf("trial %d: row length %d, want %d", trial, len(got.Dist), n)
		}
		checkDistances(t, got, wantDist, "reuse")
	}
}

// TestDijkstraScratchZeroAllocs requires a full pass, a forward and a
// reverse search from every root, to allocate nothing once one pass has
// grown each heap bucket to its largest (AllocsPerRun's warm-up call).
func TestDijkstraScratchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	rng := rand.New(rand.NewSource(17))
	g := RandomSC(128, 512, 8, rng)
	g.Seal()
	s := NewSSSPScratch(g.N())
	var sink Dist
	allocs := testing.AllocsPerRun(1, func() {
		for root := NodeID(0); root < NodeID(g.N()); root++ {
			sink += s.Dijkstra(g, root).Dist[7]
			sink += s.DijkstraRev(g, root).Dist[2]
		}
	})
	if allocs != 0 {
		t.Fatalf("scratch Dijkstra allocates %.0f times over a pass of every root, want 0 (sink %d)", allocs, sink)
	}
}

// TestSSSPScratchEpochWraparound forces the uint32 epoch to wrap and
// checks that stamps are cleared rather than misread.
func TestSSSPScratchEpochWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := RandomSC(12, 36, 4, rng)
	s := NewSSSPScratch(g.N())
	want := s.Dijkstra(g, 1)
	wantCopy := append([]Dist(nil), want.Dist...)
	s.epoch = ^uint32(0) - 1 // two runs from wrapping
	for i := 0; i < 4; i++ {
		got := s.Dijkstra(g, 1)
		for v := range wantCopy {
			if got.Dist[v] != wantCopy[v] {
				t.Fatalf("run %d after wrap: dist[%d] = %d, want %d", i, v, got.Dist[v], wantCopy[v])
			}
		}
	}
}

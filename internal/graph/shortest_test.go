package graph

import (
	"math/rand"
	"testing"
)

// floydWarshall is an independent reference implementation used to verify
// Dijkstra and AllPairs.
func floydWarshall(g *Graph) [][]Dist {
	n := g.N()
	d := make([][]Dist, n)
	for i := range d {
		d[i] = make([]Dist, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = Inf
			}
		}
	}
	for u := 0; u < n; u++ {
		for _, e := range g.Out(NodeID(u)) {
			if e.Weight < d[u][e.To] {
				d[u][e.To] = e.Weight
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if d[i][k] >= Inf {
				continue
			}
			for j := 0; j < n; j++ {
				if nd := d[i][k] + d[k][j]; nd < d[i][j] {
					d[i][j] = nd
				}
			}
		}
	}
	return d
}

func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		g := RandomSC(40, 120, 20, rng)
		want := floydWarshall(g)
		for u := 0; u < g.N(); u++ {
			got := Dijkstra(g, NodeID(u))
			for v := 0; v < g.N(); v++ {
				if got.Dist[v] != want[u][v] {
					t.Fatalf("trial %d: d(%d,%d) = %d, want %d", trial, u, v, got.Dist[v], want[u][v])
				}
			}
		}
	}
}

func TestDijkstraRevMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := RandomSC(60, 240, 15, rng)
	m := AllPairs(g)
	for sink := 0; sink < g.N(); sink += 7 {
		rev := DijkstraRev(g, NodeID(sink))
		for v := 0; v < g.N(); v++ {
			if rev.Dist[v] != m.D(NodeID(v), NodeID(sink)) {
				t.Fatalf("reverse dist(%d->%d) = %d, want %d", v, sink, rev.Dist[v], m.D(NodeID(v), NodeID(sink)))
			}
		}
	}
}

func TestDijkstraParentsFormShortestPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	g := RandomSC(50, 200, 9, rng)
	src := NodeID(0)
	res := Dijkstra(g, src)
	for v := 1; v < g.N(); v++ {
		// Walk parents back to src, accumulating weight; must equal Dist.
		var sum Dist
		cur := NodeID(v)
		steps := 0
		for cur != src {
			p := res.Parent[cur]
			if p < 0 {
				t.Fatalf("node %d has no parent but dist %d", cur, res.Dist[cur])
			}
			w := edgeWeight(t, g, p, cur)
			sum += w
			cur = p
			if steps++; steps > g.N() {
				t.Fatalf("parent chain from %d does not terminate", v)
			}
		}
		if sum != res.Dist[v] {
			t.Fatalf("parent path weight to %d = %d, want %d", v, sum, res.Dist[v])
		}
	}
}

func TestDijkstraRevParentsAreNextHops(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	g := RandomSC(50, 200, 9, rng)
	sink := NodeID(17)
	rev := DijkstraRev(g, sink)
	for v := 0; v < g.N(); v++ {
		if NodeID(v) == sink {
			continue
		}
		next := rev.Parent[v]
		if next < 0 {
			t.Fatalf("node %d has no next hop toward sink", v)
		}
		w := edgeWeight(t, g, NodeID(v), next)
		if rev.Dist[v] != w+rev.Dist[next] {
			t.Fatalf("next-hop property violated at %d: %d != %d + %d", v, rev.Dist[v], w, rev.Dist[next])
		}
	}
}

func edgeWeight(t *testing.T, g *Graph, u, v NodeID) Dist {
	t.Helper()
	for _, e := range g.Out(u) {
		if e.To == v {
			return e.Weight
		}
	}
	t.Fatalf("edge (%d,%d) not found", u, v)
	return 0
}

func TestRoundtripMetricAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 5; trial++ {
		g := RandomSC(30, 90, 25, rng)
		m := AllPairs(g)
		n := g.N()
		for u := 0; u < n; u++ {
			if m.R(NodeID(u), NodeID(u)) != 0 {
				t.Fatalf("r(%d,%d) = %d, want 0", u, u, m.R(NodeID(u), NodeID(u)))
			}
			for v := 0; v < n; v++ {
				if u == v {
					continue
				}
				ruv := m.R(NodeID(u), NodeID(v))
				if ruv <= 0 {
					t.Fatalf("r(%d,%d) = %d, want > 0", u, v, ruv)
				}
				if ruv != m.R(NodeID(v), NodeID(u)) {
					t.Fatalf("r not symmetric at (%d,%d)", u, v)
				}
			}
		}
		// Triangle inequality on a sample of triples.
		for i := 0; i < 2000; i++ {
			u, v, w := NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if m.R(u, w) > m.R(u, v)+m.R(v, w) {
				t.Fatalf("triangle inequality violated: r(%d,%d)=%d > r(%d,%d)+r(%d,%d)=%d",
					u, w, m.R(u, w), u, v, v, w, m.R(u, v)+m.R(v, w))
			}
		}
	}
}

func TestRingDistances(t *testing.T) {
	// On a directed n-ring, d(u,v) = (v-u) mod n and r(u,v) = n for u != v.
	n := 12
	g := Ring(n, nil)
	m := AllPairs(g)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			want := Dist((v - u + n) % n)
			if got := m.D(NodeID(u), NodeID(v)); got != want {
				t.Fatalf("ring d(%d,%d) = %d, want %d", u, v, got, want)
			}
			if u != v {
				if got := m.R(NodeID(u), NodeID(v)); got != Dist(n) {
					t.Fatalf("ring r(%d,%d) = %d, want %d", u, v, got, n)
				}
			}
		}
	}
}

func TestUnreachableIsInf(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	res := Dijkstra(g, 0)
	if res.Dist[2] != Inf {
		t.Fatalf("dist to unreachable node = %d, want Inf", res.Dist[2])
	}
	m := AllPairs(g)
	if m.R(0, 1) != Inf {
		t.Fatalf("roundtrip through one-way edge should be Inf, got %d", m.R(0, 1))
	}
}

func TestGridSymmetry(t *testing.T) {
	g := Grid(4, 5, nil)
	m := AllPairs(g)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if m.D(NodeID(u), NodeID(v)) != m.D(NodeID(v), NodeID(u)) {
				t.Fatalf("bidirected grid asymmetric at (%d,%d)", u, v)
			}
		}
	}
}

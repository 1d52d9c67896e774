package graph

import (
	"fmt"
	"math/rand"
)

// Generators for the synthetic workloads used throughout the evaluation.
// Every generator takes an explicit *rand.Rand so experiments are
// reproducible from a seed; every generator returns a strongly connected
// digraph with positive integer weights and adversarially permuted ports.

// Families lists the graph families Generate accepts.
const Families = "random|gnp|ring|grid|scalefree|layered|complete"

// Generate returns an n-node graph of the named family, the switch behind
// the commands' graph-family flags. Weights are uniform in [1, maxW]
// (unit on ring and grid); grid rounds n up to a square, layered up to
// four-node layers, at least two of them. It returns an error for n < 2
// or an unknown family.
func Generate(family string, n int, maxW Dist, rng *rand.Rand) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: need at least 2 nodes, got %d", n)
	}
	switch family {
	case "random":
		return RandomSC(n, 4*n, maxW, rng), nil
	case "gnp":
		return RandomGNP(n, 0.1, maxW, rng), nil
	case "ring":
		return Ring(n, rng), nil
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return Grid(side, side, rng), nil
	case "scalefree":
		return ScaleFreeSC(n, 2, maxW, rng), nil
	case "layered":
		return LayeredSC(max(2, (n+3)/4), 4, maxW, rng), nil
	case "complete":
		return Complete(n, maxW, rng), nil
	}
	return nil, fmt.Errorf("graph: unknown graph family %q (want %s)", family, Families)
}

// RandomSC returns a random strongly connected digraph with n nodes and
// n+extra edges: a Hamiltonian cycle through a random permutation
// guarantees strong connectivity, then extra random edges are layered on
// top. extra is capped at n(n-1)-n, the ordered pairs the cycle leaves
// free, so an oversized request returns the complete digraph. Weights
// are uniform in [1, maxW].
func RandomSC(n, extra int, maxW Dist, rng *rand.Rand) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: RandomSC needs n >= 2, got %d", n))
	}
	if maxW < 1 {
		maxW = 1
	}
	extra = min(extra, n*(n-1)-n)
	g := New(n)
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		u := NodeID(perm[i])
		v := NodeID(perm[(i+1)%n])
		g.MustAddEdge(u, v, 1+Dist(rng.Int63n(int64(maxW))))
	}
	for added := 0; added < extra; {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, 1+Dist(rng.Int63n(int64(maxW))))
		added++
	}
	g.AssignPorts(rng.Intn)
	return g
}

// RandomGNP returns an Erdős–Rényi digraph G(n, p) restricted to remain
// strongly connected: edges are sampled independently with probability p,
// then a random Hamiltonian cycle is added to guarantee connectivity.
func RandomGNP(n int, p float64, maxW Dist, rng *rand.Rand) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: RandomGNP needs n >= 2, got %d", n))
	}
	if maxW < 1 {
		maxW = 1
	}
	g := New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				g.MustAddEdge(NodeID(u), NodeID(v), 1+Dist(rng.Int63n(int64(maxW))))
			}
		}
	}
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		u := NodeID(perm[i])
		v := NodeID(perm[(i+1)%n])
		if !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, 1+Dist(rng.Int63n(int64(maxW))))
		}
	}
	g.AssignPorts(rng.Intn)
	return g
}

// Ring returns a directed cycle 0 -> 1 -> ... -> n-1 -> 0 with unit
// weights. Rings maximize the asymmetry between d(u,v) and d(v,u) and so
// exercise the roundtrip metric's worst cases.
func Ring(n int, rng *rand.Rand) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: Ring needs n >= 2, got %d", n))
	}
	g := New(n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(NodeID(i), NodeID((i+1)%n), 1)
	}
	if rng != nil {
		g.AssignPorts(rng.Intn)
	}
	return g
}

// Grid returns a rows x cols bidirected grid (each undirected grid edge
// becomes two directed edges) with unit weights. Bidirected graphs have
// d(u,v) == d(v,u), the symmetric extreme of the roundtrip metric, and are
// the substrate of the Theorem 15 lower-bound reduction.
func Grid(rows, cols int, rng *rand.Rand) *Graph {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		panic(fmt.Sprintf("graph: Grid needs >= 2 nodes, got %dx%d", rows, cols))
	}
	g := New(rows * cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.MustAddEdge(id(r, c), id(r, c+1), 1)
				g.MustAddEdge(id(r, c+1), id(r, c), 1)
			}
			if r+1 < rows {
				g.MustAddEdge(id(r, c), id(r+1, c), 1)
				g.MustAddEdge(id(r+1, c), id(r, c), 1)
			}
		}
	}
	if rng != nil {
		g.AssignPorts(rng.Intn)
	}
	return g
}

// Bidirect returns the directed graph obtained by replacing each edge of g
// with a pair of oppositely directed edges of the same weight — the
// construction in the proof of Theorem 15. Edges already paired are kept.
func Bidirect(g *Graph) *Graph {
	b := New(g.N())
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Out(NodeID(u)) {
			if !b.HasEdge(NodeID(u), e.To) {
				b.MustAddEdge(NodeID(u), e.To, e.Weight)
			}
			if !b.HasEdge(e.To, NodeID(u)) {
				b.MustAddEdge(e.To, NodeID(u), e.Weight)
			}
		}
	}
	return b
}

// ScaleFreeSC returns a preferential-attachment digraph made strongly
// connected with a closing random cycle. Each new node attaches deg
// out-edges to nodes sampled with probability proportional to in-degree
// (plus smoothing), producing the heavy-tailed degree distribution of
// peer-to-peer overlays — the application domain the paper's conclusion
// motivates.
func ScaleFreeSC(n, deg int, maxW Dist, rng *rand.Rand) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: ScaleFreeSC needs n >= 2, got %d", n))
	}
	if deg < 1 {
		deg = 1
	}
	if maxW < 1 {
		maxW = 1
	}
	g := New(n)
	indeg := make([]int, n)
	total := 0
	sample := func(limit int) NodeID {
		// Weighted sample over [0, limit) by indeg+1.
		t := rng.Intn(total + limit)
		acc := 0
		for v := 0; v < limit; v++ {
			acc += indeg[v] + 1
			if t < acc {
				return NodeID(v)
			}
		}
		return NodeID(limit - 1)
	}
	for u := 1; u < n; u++ {
		for j := 0; j < deg && j < u; j++ {
			v := sample(u)
			if g.HasEdge(NodeID(u), v) {
				continue
			}
			g.MustAddEdge(NodeID(u), v, 1+Dist(rng.Int63n(int64(maxW))))
			indeg[v]++
			total++
		}
	}
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		u := NodeID(perm[i])
		v := NodeID(perm[(i+1)%n])
		if !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, 1+Dist(rng.Int63n(int64(maxW))))
		}
	}
	g.AssignPorts(rng.Intn)
	return g
}

// LayeredSC returns a layered digraph: layers of width nodes with random
// forward edges between consecutive layers and a single heavy "return"
// path from the last layer to the first. The forward/return asymmetry
// makes d(u,v) and d(v,u) wildly different, stressing roundtrip amortization.
func LayeredSC(layers, width int, maxW Dist, rng *rand.Rand) *Graph {
	if layers < 2 || width < 1 {
		panic(fmt.Sprintf("graph: LayeredSC needs layers >= 2, width >= 1, got %d,%d", layers, width))
	}
	if maxW < 1 {
		maxW = 1
	}
	n := layers * width
	g := New(n)
	id := func(l, i int) NodeID { return NodeID(l*width + i) }
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			// Every node gets >= 1 forward edge; extras at random.
			j := rng.Intn(width)
			g.MustAddEdge(id(l, i), id(l+1, j), 1+Dist(rng.Int63n(int64(maxW))))
			for k := 0; k < 2; k++ {
				j2 := rng.Intn(width)
				if !g.HasEdge(id(l, i), id(l+1, j2)) {
					g.MustAddEdge(id(l, i), id(l+1, j2), 1+Dist(rng.Int63n(int64(maxW))))
				}
			}
		}
	}
	// Intra-layer cycles so each layer is internally reachable.
	for l := 0; l < layers; l++ {
		if width > 1 {
			for i := 0; i < width; i++ {
				if !g.HasEdge(id(l, i), id(l, (i+1)%width)) {
					g.MustAddEdge(id(l, i), id(l, (i+1)%width), 1+Dist(rng.Int63n(int64(maxW))))
				}
			}
		}
	}
	// Return edge closing the layered flow into a strongly connected whole.
	g.MustAddEdge(id(layers-1, 0), id(0, 0), 1+Dist(rng.Int63n(int64(maxW))))
	g.AssignPorts(rng.Intn)
	return g
}

// Complete returns the complete digraph on n nodes with weights uniform in
// [1, maxW].
func Complete(n int, maxW Dist, rng *rand.Rand) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: Complete needs n >= 2, got %d", n))
	}
	if maxW < 1 {
		maxW = 1
	}
	g := New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				g.MustAddEdge(NodeID(u), NodeID(v), 1+Dist(rng.Int63n(int64(maxW))))
			}
		}
	}
	g.AssignPorts(rng.Intn)
	return g
}

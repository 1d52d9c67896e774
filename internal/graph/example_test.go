package graph_test

import (
	"fmt"

	"rtroute/internal/graph"
)

// Example builds a tiny weighted digraph by hand and queries shortest
// and roundtrip distances through the distance oracle, once with every
// row computed up front (AllPairs) and once with a two-row budget that
// computes rows on demand — the answers always agree.
func Example() {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 2) // ports are assigned in insertion order
	g.MustAddEdge(1, 2, 3)
	g.MustAddEdge(2, 0, 4)

	all := graph.AllPairs(g)
	lazy := graph.NewLazyOracle(g, 2)
	fmt.Println("d(0,2) =", all.FromSource(0)[2], lazy.FromSource(0)[2])
	fmt.Println("r(0,2) =", all.R(0, 2), lazy.R(0, 2)) // roundtrip: 0->2->0
	// Output:
	// d(0,2) = 5 5
	// r(0,2) = 9 9
}

// ExampleDijkstra runs one single-source shortest-path pass.
func ExampleDijkstra() {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 2, 5)
	g.MustAddEdge(2, 3, 1)
	res := new(graph.SSSPScratch).Dijkstra(g, 0)
	fmt.Println(res.Dist[2], res.Dist[3])
	// Output:
	// 2 3
}

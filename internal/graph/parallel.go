package graph

import "rtroute/internal/parallel"

// AllPairsParallel computes the dense metric on a pool of workers — the
// all-pairs pass dominates preprocessing, and the per-source Dijkstras
// are embarrassingly parallel. workers <= 0 selects GOMAXPROCS; one
// worker runs on the calling goroutine.
func AllPairsParallel(g *Graph, workers int) *Metric {
	n := g.N()
	m := &Metric{n: n, d: make([][]Dist, n)}
	// One scratch per worker: every row after the first is a
	// zero-allocation Dijkstra plus one owned-row copy.
	scratch := make([]SSSPScratch, parallel.Workers(n, workers))
	_ = parallel.ForEachWorker(n, workers, func(w, u int) error { // fn never fails
		m.d[u] = append([]Dist(nil), scratch[w].Dijkstra(g, NodeID(u)).Dist...)
		return nil
	})
	return m
}

// Package cover implements the sparse cover machinery of §4 of the paper:
// the PartialCover and Cover algorithms of Figs. 7 and 8 (generalized
// Awerbuch–Peleg sparse partitions over an arbitrary distance metric,
// Theorem 10), the roundtrip double-tree covers and home-tree hierarchy
// of Theorem 13, and — for the §4.4 ablation — an RTZ-style ball-growing
// cover with weaker per-vertex guarantees.
package cover

import (
	"fmt"
	"math"

	"rtroute/internal/bitset"
	"rtroute/internal/graph"
)

// Metric is a distance function over node pairs. Theorem 10 holds for any
// metric; the schemes instantiate it with the roundtrip distance.
type Metric func(u, v graph.NodeID) graph.Dist

// Cluster is one output cluster of a cover: a node set with the seed
// center the construction grew it from.
type Cluster struct {
	Center graph.NodeID
	Nodes  []graph.NodeID
}

// Result is a cover of the graph: clusters plus, for every node v, the
// index of the cluster guaranteed to contain all of Nhat_d(v) (its "home"
// cluster, Theorem 10 property 1 / Theorem 13 home double-tree).
type Result struct {
	D        graph.Dist
	Clusters []Cluster
	Home     []int32
}

// ball is an input cluster of PartialCover: the ball Nhat_d(seed).
type ball struct {
	seed graph.NodeID
	set  *bitset.Set
}

// partialOutput reports one PartialCover invocation's results in terms of
// input ball indices.
type partialOutput struct {
	merged  []mergedCluster
	covered []int // ball indices subsumed this round (the paper's DR)
}

type mergedCluster struct {
	center graph.NodeID
	set    *bitset.Set
	subs   []int // covered ball indices whose union is this cluster
}

// partialCover is Fig. 7 verbatim: given the collection R (active balls,
// as indices into balls), it produces disjoint merged clusters DT, each
// the union of a sub-collection Y of input balls, removing from the
// active set every ball intersecting an output cluster.
// inU is scratch for U as a dense set over ball indices: all false on
// entry, and all false again on return, every active ball having left U.
func partialCover(balls []ball, active []int, inU []bool, k int, n int) partialOutput {
	ratio := math.Pow(float64(len(active)), 1/float64(k))
	for _, i := range active {
		inU[i] = true
	}
	remaining := append([]int(nil), active...)
	var out partialOutput

	for len(remaining) > 0 {
		// Select the arbitrary seed cluster S0 deterministically: first
		// remaining ball.
		var s0 = -1
		for _, i := range remaining {
			if inU[i] {
				s0 = i
				break
			}
		}
		if s0 < 0 {
			break
		}

		// Growth loop (lines 5–9): Z/Y are collections of ball indices,
		// zset/yset their unions.
		zcol := []int{s0}
		zset := balls[s0].set.Clone()
		var ycol []int
		var yset *bitset.Set
		for {
			ycol, yset = zcol, zset
			zcol = nil
			for _, i := range remaining {
				if inU[i] && balls[i].set.Intersects(yset) {
					zcol = append(zcol, i)
				}
			}
			zset = bitset.New(n)
			for _, i := range zcol {
				zset.UnionWith(balls[i].set)
			}
			if float64(len(zcol)) <= ratio*float64(len(ycol)) {
				break
			}
		}

		// Lines 10–12: remove Z from U, emit Y's union, record covered.
		for _, i := range zcol {
			inU[i] = false
		}
		next := remaining[:0]
		for _, i := range remaining {
			if inU[i] {
				next = append(next, i)
			}
		}
		remaining = next

		out.merged = append(out.merged, mergedCluster{
			center: balls[s0].seed,
			set:    yset,
			subs:   append([]int(nil), ycol...),
		})
		out.covered = append(out.covered, ycol...)
	}
	return out
}

// Build is Fig. 8 (algorithm Cover) instantiated for Theorem 10: it
// covers the balls {Nhat_d(v)} of the given metric, guaranteeing
//
//  1. for every v some cluster contains all of Nhat_d(v) (Home[v]),
//  2. cluster radius (within the induced subgraph, from the seed center)
//     at most (2k-1)d, and
//  3. every node appears in at most 2k*n^(1/k) clusters.
func Build(g *graph.Graph, dm Metric, k int, d graph.Dist) (*Result, error) {
	if k < 2 {
		return nil, fmt.Errorf("cover: k must be >= 2, got %d", k)
	}
	if d < 1 {
		return nil, fmt.Errorf("cover: d must be >= 1, got %d", d)
	}
	n := g.N()
	balls := make([]ball, n)
	for v := 0; v < n; v++ {
		s := bitset.New(n)
		for u := 0; u < n; u++ {
			if dm(graph.NodeID(v), graph.NodeID(u)) <= d {
				s.Add(u)
			}
		}
		balls[v] = ball{seed: graph.NodeID(v), set: s}
	}

	res := &Result{D: d, Home: make([]int32, n)}
	for i := range res.Home {
		res.Home[i] = -1
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	inU, covered := make([]bool, n), make([]bool, n)

	for len(active) > 0 {
		out := partialCover(balls, active, inU, k, n)
		if len(out.covered) == 0 {
			return nil, fmt.Errorf("cover: PartialCover made no progress with %d active balls", len(active))
		}
		for _, mc := range out.merged {
			idx := int32(len(res.Clusters))
			nodes := make([]graph.NodeID, 0, mc.set.Count())
			mc.set.ForEach(func(i int) { nodes = append(nodes, graph.NodeID(i)) })
			res.Clusters = append(res.Clusters, Cluster{Center: mc.center, Nodes: nodes})
			for _, bi := range mc.subs {
				res.Home[balls[bi].seed] = idx
			}
		}
		for _, i := range out.covered {
			covered[i] = true
		}
		next := active[:0]
		for _, i := range active {
			if !covered[i] {
				next = append(next, i)
			}
		}
		active = next
	}

	for v, h := range res.Home {
		if h < 0 {
			return nil, fmt.Errorf("cover: node %d has no home cluster", v)
		}
	}
	return res, nil
}

// BuildBallGrowing is the ablation baseline discussed in §4.4: an
// RTZ-flavored region-growing cover. It repeatedly picks an uncovered
// node v and grows j until |Ball(v,(j+1)d)| <= n^(1/k) * |Ball(v,jd)|,
// emits Ball(v,(j+1)d) as a cluster, and assigns every still-homeless
// node of the core Ball(v,jd) this cluster as home. It yields radius at
// most (k+1)d — better than (2k-1)d — but unlike Build it gives no
// deterministic bound on how many clusters a node appears in, which is
// the property the paper's storage analysis needs.
func BuildBallGrowing(g *graph.Graph, dm Metric, k int, d graph.Dist) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("cover: k must be >= 1, got %d", k)
	}
	if d < 1 {
		return nil, fmt.Errorf("cover: d must be >= 1, got %d", d)
	}
	n := g.N()
	ratio := math.Pow(float64(n), 1/float64(k))
	res := &Result{D: d, Home: make([]int32, n)}
	for i := range res.Home {
		res.Home[i] = -1
	}

	ballAt := func(v graph.NodeID, radius graph.Dist) []graph.NodeID {
		var out []graph.NodeID
		for u := 0; u < n; u++ {
			if dm(v, graph.NodeID(u)) <= radius {
				out = append(out, graph.NodeID(u))
			}
		}
		return out
	}

	for v := 0; v < n; v++ {
		if res.Home[v] >= 0 {
			continue
		}
		var core, cluster []graph.NodeID
		for j := graph.Dist(1); ; j++ {
			core = ballAt(graph.NodeID(v), j*d)
			cluster = ballAt(graph.NodeID(v), (j+1)*d)
			if float64(len(cluster)) <= ratio*float64(len(core)) {
				break
			}
		}
		idx := int32(len(res.Clusters))
		res.Clusters = append(res.Clusters, Cluster{Center: graph.NodeID(v), Nodes: cluster})
		for _, u := range core {
			if res.Home[u] < 0 {
				res.Home[u] = idx
			}
		}
	}
	return res, nil
}

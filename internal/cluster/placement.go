package cluster

import (
	"fmt"
	"sort"

	"rtroute/internal/core"
	"rtroute/internal/graph"
	"rtroute/internal/rtz"
)

// Policy selects how nodes are partitioned across shards. Because TINN
// names carry no topology, *any* deterministic map works for
// correctness — the policies differ only in how many hops cross shard
// boundaries, which is exactly the deployment question the E15
// experiment measures.
type Policy string

const (
	// Contiguous assigns node index ranges [v*S/n] — the naive "rack by
	// arrival order" layout.
	Contiguous Policy = "contiguous"
	// Hash scatters nodes by a splitmix64 of their index — the
	// consistent-hashing layout a name-addressed store would pick.
	Hash Policy = "hash"
	// RTZAligned co-locates each stretch-3 cluster (the nodes sharing a
	// nearest center) on one shard, balancing cluster groups across
	// shards — placement that *uses* the scheme's own locality
	// structure. Available for schemes carrying RTZ labels (stretch6
	// and the rtz substrate plane).
	RTZAligned Policy = "rtz"
)

// Placement maps every node to its owning shard.
type Placement struct {
	Shards int
	Policy Policy
	// Owner[v] is the shard serving node v.
	Owner []int32
}

// NewPlacement partitions the deployment's nodes across shards under
// the given policy. The result is deterministic: same deployment, shard
// count and policy always produce the same map, so every daemon of a
// TCP cluster computes an identical placement from its own snapshot
// copy.
func NewPlacement(dep *core.Deployment, shards int, policy Policy) (*Placement, error) {
	n := dep.Graph().N()
	if shards < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 shard, got %d", shards)
	}
	if shards > n {
		return nil, fmt.Errorf("cluster: %d shards over %d nodes leaves empty shards", shards, n)
	}
	p := &Placement{Shards: shards, Policy: policy, Owner: make([]int32, n)}
	switch policy {
	case Contiguous, "":
		p.Policy = Contiguous
		for v := 0; v < n; v++ {
			p.Owner[v] = int32(v * shards / n)
		}
	case Hash:
		for v := 0; v < n; v++ {
			p.Owner[v] = int32(splitmix64(uint64(v)) % uint64(shards))
		}
		if err := p.fillEmpty(n); err != nil {
			return nil, err
		}
	case RTZAligned:
		centers, err := rtzCenters(dep)
		if err != nil {
			return nil, err
		}
		if err := p.alignToCenters(centers); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("cluster: unknown placement policy %q", policy)
	}
	return p, nil
}

// Shard returns node v's owning shard.
func (p *Placement) Shard(v graph.NodeID) int { return int(p.Owner[v]) }

// coarsen folds the placement's partitions onto w <= Shards fabric
// workers, partition s joining worker s*w/Shards — contiguous runs, none
// empty. Any node->shard map routes correctly, so the result is a
// Placement like any other; it only has fewer boundaries to cross.
func (p *Placement) coarsen(w int) *Placement {
	if w >= p.Shards {
		return p
	}
	c := &Placement{Shards: w, Policy: p.Policy, Owner: make([]int32, len(p.Owner))}
	for v, s := range p.Owner {
		c.Owner[v] = int32(int(s) * w / p.Shards)
	}
	return c
}

// Counts returns how many nodes each shard owns.
func (p *Placement) Counts() []int {
	counts := make([]int, p.Shards)
	for _, s := range p.Owner {
		counts[s]++
	}
	return counts
}

// CrossEdgeFraction reports the fraction of graph edges whose endpoints
// live on different shards — the static ceiling on how often a uniform
// random walk would cross shard boundaries under this placement.
func (p *Placement) CrossEdgeFraction(g *graph.Graph) float64 {
	if g.M() == 0 {
		return 0
	}
	cross := 0
	for v := 0; v < g.N(); v++ {
		for _, e := range g.Out(graph.NodeID(v)) {
			if p.Owner[v] != p.Owner[e.To] {
				cross++
			}
		}
	}
	return float64(cross) / float64(g.M())
}

// fillEmpty repairs a hashed placement on tiny node counts where some
// shard drew no nodes: it moves one node from the fullest shard into
// each empty one (deterministically, lowest index first).
func (p *Placement) fillEmpty(n int) error {
	counts := p.Counts()
	for s, c := range counts {
		if c > 0 {
			continue
		}
		donor, max := -1, 1
		for t, ct := range counts {
			if ct > max {
				donor, max = t, ct
			}
		}
		if donor < 0 {
			return fmt.Errorf("cluster: cannot fill empty shard %d", s)
		}
		for v := 0; v < n; v++ {
			if p.Owner[v] == int32(donor) {
				p.Owner[v] = int32(s)
				counts[donor]--
				counts[s]++
				break
			}
		}
	}
	return nil
}

// rtzCenters reads each node's stretch-3 cluster center off its own
// address in the deployment's scheme.
func rtzCenters(dep *core.Deployment) ([]graph.NodeID, error) {
	var label func(graph.NodeID) rtz.Label
	switch s := dep.Scheme().(type) {
	case *core.StretchSix:
		label = s.LabelOf
	case *core.RTZPlane:
		label = s.Substrate().LabelOf
	default:
		return nil, fmt.Errorf("cluster: %s placement needs a scheme with RTZ labels (stretch6 or rtz), got %s",
			RTZAligned, dep.Kind())
	}
	centers := make([]graph.NodeID, dep.Graph().N())
	for v := range centers {
		centers[v] = label(graph.NodeID(v)).Center
	}
	return centers, nil
}

// alignToCenters groups nodes by cluster center and packs whole
// clusters onto shards, largest first onto the least-loaded shard — a
// deterministic LPT bin packing that keeps shard loads balanced while
// never splitting a cluster.
func (p *Placement) alignToCenters(centers []graph.NodeID) error {
	bySize := map[graph.NodeID]int{}
	for _, c := range centers {
		bySize[c]++
	}
	if len(bySize) < p.Shards {
		return fmt.Errorf("cluster: %s placement has %d clusters for %d shards; use fewer shards",
			RTZAligned, len(bySize), p.Shards)
	}
	order := make([]graph.NodeID, 0, len(bySize))
	for c := range bySize {
		order = append(order, c)
	}
	sort.Slice(order, func(i, j int) bool {
		if bySize[order[i]] != bySize[order[j]] {
			return bySize[order[i]] > bySize[order[j]]
		}
		return order[i] < order[j]
	})
	load := make([]int, p.Shards)
	shardOf := make(map[graph.NodeID]int32, len(order))
	for _, c := range order {
		best := 0
		for s := 1; s < p.Shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		shardOf[c] = int32(best)
		load[best] += bySize[c]
	}
	for v, c := range centers {
		p.Owner[v] = shardOf[c]
	}
	return nil
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-mixed integer
// hash with no shared state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

package cover

import (
	"cmp"
	"fmt"
	"math"

	"rtroute/internal/graph"
	"rtroute/internal/parallel"
	"rtroute/internal/tree"
)

// TreeRef names one double-tree in a Hierarchy: level index and tree
// index within the level. TreeRefs are the "identifiers for double-trees"
// the §4 scheme stores and writes into headers (poly-log bits).
type TreeRef struct {
	Level int32
	Index int32
}

// Compare orders tree references by (level, index), the order of every
// membership list.
func (r TreeRef) Compare(o TreeRef) int {
	return cmp.Or(cmp.Compare(r.Level, o.Level), cmp.Compare(r.Index, o.Index))
}

// Level is one scale of the Theorem 13 hierarchy: a sparse cover at
// roundtrip radius Scale, with a double-tree per cluster and each node's
// home tree.
type Level struct {
	Scale graph.Dist
	Cover *Result
	Trees []*tree.Tree
}

// Hierarchy is the full §4 structure: covers at geometrically increasing
// roundtrip scales, double-trees on every cluster, and per-node tree
// memberships, the Lemma 5 hop substrate's state, which every plane
// built over the hierarchy shares.
type Hierarchy struct {
	K      int
	Base   float64
	Levels []Level

	memberships [][]Membership
	members     [][]member // parallel to memberships, for TreeSearch
	trees       int        // dense tree ids run 0..trees-1 in (level, index) order
}

// Membership is a node's O(1) routing state in one double-tree it
// belongs to: its out-tree state, its in-tree port toward the root
// (0 at the root) and whether it is the root.
type Membership struct {
	Ref    TreeRef
	State  tree.State
	InPort graph.PortID
	IsRoot bool
}

// member is what a TreeSearch reads of one membership beside its
// TreeRef: the tree's dense id, the node's slot in it and its
// RoundtripAt there.
type member struct {
	id, slot int32
	rt       graph.Dist
}

// Variant selects the cover construction for a hierarchy.
type Variant int

const (
	// VariantAwerbuchPeleg is the paper's Theorem 10 cover (Figs. 7–8):
	// radius (2k-1)d, overlap 2k*n^(1/k), home tree spans Nhat_d(v).
	VariantAwerbuchPeleg Variant = iota
	// VariantBallGrowing is the §4.4 ablation: radius (k+1)d, no
	// deterministic overlap bound.
	VariantBallGrowing
)

func (v Variant) String() string {
	switch v {
	case VariantAwerbuchPeleg:
		return "awerbuch-peleg"
	case VariantBallGrowing:
		return "ball-growing"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Scales returns the geometric scale ladder 2, ceil(base^2)... capped at
// the first value >= rtDiam. The ladder always has at least one level and
// strictly increases.
func Scales(rtDiam graph.Dist, base float64) []graph.Dist {
	if base < 1.01 {
		base = 1.01
	}
	if rtDiam < 2 {
		rtDiam = 2
	}
	var scales []graph.Dist
	x := 2.0
	for {
		s := graph.Dist(math.Ceil(x))
		if len(scales) == 0 || s > scales[len(scales)-1] {
			scales = append(scales, s)
		}
		if s >= rtDiam {
			return scales
		}
		x *= base
	}
}

// BuildHierarchy constructs covers and double-trees at every scale of the
// ladder for the roundtrip metric of m. base is the scale ratio (the
// paper uses 2; §4.4 notes 1+eps tightens the hop stretch at the price of
// more levels). m may be any distance oracle: the ball constructions scan
// r(v, ·) with a fixed anchor, which a lazy oracle serves from two cached
// rows per node.
//
// Given the oracle the levels are independent, so they are built on
// GOMAXPROCS cores, one level per call; the memberships are then
// appended in level order, so the hierarchy does not depend on the core
// count.
func BuildHierarchy(g *graph.Graph, m graph.DistanceOracle, k int, base float64, variant Variant) (*Hierarchy, error) {
	if variant != VariantAwerbuchPeleg && variant != VariantBallGrowing {
		return nil, fmt.Errorf("cover: unknown variant %v", variant)
	}
	scales := Scales(graph.RTDiamOf(m), base)
	levels, errs := make([]Level, len(scales)), make([]error, len(scales))
	// Levels are handed out in ascending order, so when one fails every
	// lower level has started and runs to its end: the lowest error is
	// the same at any core count.
	_ = parallel.ForEach(len(scales), 0, func(li int) error {
		levels[li], errs[li] = buildLevel(g, m, k, scales[li], variant)
		if errs[li] != nil {
			errs[li] = fmt.Errorf("cover: level %d (scale %d): %w", li, scales[li], errs[li])
		}
		return errs[li]
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	h := &Hierarchy{K: k, Base: base, Levels: levels, memberships: make([][]Membership, g.N()), members: make([][]member, g.N())}
	for li, lvl := range levels {
		for ci, t := range lvl.Trees { // a tree's members are its cluster's nodes
			for slot, v := range t.Members {
				h.memberships[v] = append(h.memberships[v], Membership{
					Ref:   TreeRef{Level: int32(li), Index: int32(ci)},
					State: t.StateAt(slot), InPort: t.InPortAt(slot), IsRoot: v == t.Root,
				})
				h.members[v] = append(h.members[v], member{id: int32(h.trees), slot: int32(slot), rt: t.RoundtripAt(slot)})
			}
			h.trees++
		}
	}
	return h, nil
}

// buildLevel is one level of BuildHierarchy: the cover at scale and a
// double-tree on each of its clusters.
func buildLevel(g *graph.Graph, m graph.DistanceOracle, k int, scale graph.Dist, variant Variant) (Level, error) {
	// The ball scans call rt with a fixed anchor across each inner loop,
	// so cache the anchor's two rows here instead of paying the oracle's
	// per-call bookkeeping n times per anchor. Build and
	// BuildBallGrowing are single-goroutine and each level has its own
	// cache, so plain captures suffice.
	var (
		anchor   graph.NodeID = -1
		fwd, rev []graph.Dist
	)
	rt := func(u, v graph.NodeID) graph.Dist {
		if u != anchor {
			fwd, rev = m.FromSource(u), m.ToSink(u)
			anchor = u
		}
		return graph.RFromRows(fwd, rev, v)
	}
	var (
		res *Result
		err error
	)
	if variant == VariantAwerbuchPeleg {
		res, err = Build(g, rt, k, scale)
	} else {
		res, err = BuildBallGrowing(g, rt, k, scale)
	}
	if err != nil {
		return Level{}, err
	}
	lvl := Level{Scale: scale, Cover: res, Trees: make([]*tree.Tree, len(res.Clusters))}
	for ci, c := range res.Clusters {
		if lvl.Trees[ci], err = tree.BuildDouble(g, c.Center, c.Nodes); err != nil {
			return Level{}, fmt.Errorf("cluster %d: %w", ci, err)
		}
	}
	return lvl, nil
}

// Tree resolves a TreeRef.
func (h *Hierarchy) Tree(ref TreeRef) *tree.Tree {
	return h.Levels[ref.Level].Trees[ref.Index]
}

// N returns the number of nodes the hierarchy was built over.
func (h *Hierarchy) N() int { return len(h.memberships) }

// Memberships returns v's state in every tree containing it, across all
// levels in (level, index) order; callers share the slice and must not
// modify it. Its length is the per-node tree count the storage analysis
// charges for.
func (h *Hierarchy) Memberships(v graph.NodeID) []Membership {
	return h.memberships[v]
}

// TreeSearch answers, for one u and many v, which tree shared by u and
// v minimizes the roundtrip u -> root -> v -> root -> u through its
// root (the "most convenient double tree" of §3.3's R2(u, v)), ties
// broken toward the lower (level, index). From lays out u's tree costs
// once, by dense tree id, and Best scans v's memberships against them,
// without a slot probe. A search is one goroutine's.
type TreeSearch struct {
	h    *Hierarchy
	u    graph.NodeID
	cost []graph.Dist // by tree id: u's RoundtripAt, Inf where u is no member
	slot []int32      // by tree id: u's slot
}

// Shared is the tree a TreeSearch picks for a pair, with both nodes'
// slots in it (for Tree.LabelAt and the other At accessors).
type Shared struct {
	Ref          TreeRef
	Cost         graph.Dist
	USlot, VSlot int
}

// NewTreeSearch returns a search over h, laid out from no node.
func (h *Hierarchy) NewTreeSearch() *TreeSearch {
	s := &TreeSearch{h: h, u: -1, cost: make([]graph.Dist, h.trees), slot: make([]int32, h.trees)}
	for i := range s.cost {
		s.cost[i] = graph.Inf
	}
	return s
}

// From lays the search out from u, clearing the previous node's costs.
func (s *TreeSearch) From(u graph.NodeID) {
	if s.u >= 0 {
		for _, m := range s.h.members[s.u] {
			s.cost[m.id] = graph.Inf
		}
	}
	s.u = u
	for _, m := range s.h.members[u] {
		s.cost[m.id], s.slot[m.id] = m.rt, m.slot
	}
}

// Best returns the tree shared by v and the node the search was laid out
// from that minimizes the roundtrip through its root, or false if none
// is (cannot happen for a full hierarchy, whose top level spans V). v's
// memberships ascend in (level, index), so keeping the first of equal
// costs (a strict <) breaks ties toward the lower (level, index).
func (s *TreeSearch) Best(v graph.NodeID) (Shared, bool) {
	best, at := graph.Inf, -1
	for j, m := range s.h.members[v] {
		if c := s.cost[m.id]; c != graph.Inf && c+m.rt < best {
			best, at = c+m.rt, j
		}
	}
	if at < 0 {
		return Shared{}, false
	}
	m := s.h.members[v][at]
	return Shared{Ref: s.h.memberships[v][at].Ref, Cost: best, USlot: int(s.slot[m.id]), VSlot: int(m.slot)}, true
}

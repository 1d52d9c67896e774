package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"time"

	"rtroute/internal/blocks"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/parallel"
	"rtroute/internal/rtmetric"
	"rtroute/internal/rtz"
)

// MaintainReport accounts one incremental RebuildNodes pass across the
// layered scheme state, for the churn experiments' delta-cost metrics.
type MaintainReport struct {
	// DirtyNodes is the size of the dirty set: nodes whose per-node
	// solver state (distance rows, Init orders, dictionary contents) was
	// re-derived. The "delta-rebuild touched X% of nodes" metric.
	DirtyNodes int
	// RebuiltTrees / RebuiltClusters account the substrate delta
	// (rtz.MaintainReport).
	RebuiltTrees    int
	RebuiltClusters int
	// ChangedLabels counts the substrate addresses R3 the pass changed,
	// each written once: into StretchSix's label store, which every
	// dictionary holding the name reads, or RTZStretch3's own directory.
	ChangedLabels int
	// RebuiltTables counts per-node scheme tables rebuilt outright.
	RebuiltTables int
	// FullRebuild is set when the maintainer had to fall back to
	// rebuilding every per-node table (block-assignment drift, or a
	// scheme kind with no incremental path).
	FullRebuild bool
	// SSSPRuns counts the full-graph shortest-path searches the pass ran:
	// the oracle's row misses plus two per rebuilt center tree. The bill
	// is at most one forward and one reverse search per re-solved
	// destination and per rebuilt tree; more means a row was computed
	// twice. A lazy oracle that holds a destination's rows re-derives
	// them instead, so with every row resident a pass searches only for
	// its trees.
	SSSPRuns int
	// RowUpdates counts the oracle rows the pass re-derived from their
	// resident versions with no search (graph.LazyStats.Updates).
	RowUpdates int
	// Per-stage wall time. SubstrateNs is the stretch-3 delta (trees,
	// labels, clusters — and, inside its per-destination pass, the dirty
	// Init orders); OrdersNs is the time inside those order fills summed
	// over the workers that ran them, a share of SubstrateNs rather than
	// a stage beside it. AssignNs is the block-assignment replay, TablesNs
	// the per-node table rebuilds (the whole pass, for a kind that
	// rebuilds from scratch), PatchNs the new label store and the new
	// tables of clean nodes whose substrate table or own address moved.
	SubstrateNs, OrdersNs, AssignNs, TablesNs, PatchNs int64
}

// S6Maintainer keeps a StretchSix plane route-identical to what a
// from-scratch build would produce on the (mutating) graph, rebuilding
// only what a churn event's may-use affected set can touch. Each pass
// publishes a new plane and never writes one it has published:
//
//   - the stretch-3 substrate delta-rebuilds via rtz.Maintainer;
//   - dirty nodes' Init orders are invalidated and their §2.1 tables
//     rebuilt through the exact same per-node constructor the fresh
//     builder runs;
//   - the Lemma 1 block assignment is re-derived from an identically
//     re-seeded stream against the maintained order cache — replaying
//     the fresh builder's sample-and-verify loop bit-exactly, so even
//     its retry behavior under the new topology is reproduced — and if
//     the resulting sets drift from the cached ones (a verification
//     retry fired), the maintainer falls back to a full table rebuild;
//   - each changed substrate address is written once, into a copy of
//     the previous plane's label store that every dictionary reads. The
//     new plane's records start as a copy of the previous plane's, by
//     value: a clean node's record keeps sharing its dictionary words
//     and block holders with the previous plane, and only a clean node
//     whose substrate table or own address moved has those two fields
//     rewritten in the copy.
type S6Maintainer struct {
	s        *StretchSix
	m        graph.DistanceOracle
	perm     *names.Permutation
	cfg      Stretch6Config
	seed     int64
	subM     *rtz.Maintainer
	space    *rtmetric.Space
	assign   *blocks.Assignment
	nbhdSize int
	// ordersNs accumulates fillOrder's time since the last report.
	ordersNs atomic.Int64
}

// NewStretchSixMaintained builds a StretchSix plane exactly as
// NewStretchSix seeded with seed would (same rng consumption, same
// substrate, same assignment, same tables) and returns it with its
// maintainer. The plane is the fresh build's, in the same sealed form.
func NewStretchSixMaintained(g *graph.Graph, m graph.DistanceOracle, perm *names.Permutation, seed int64, cfg Stretch6Config) (*S6Maintainer, error) {
	mt, err := newS6(g, m, perm, rand.New(rand.NewSource(seed)), cfg)
	if err != nil {
		return nil, err
	}
	mt.seed = seed
	return mt, nil
}

// fillOrder is the substrate pass's Visit hook: sort Init_y from the two
// rows the cluster solve just fetched, and account the time (see
// MaintainReport.OrdersNs).
func (mt *S6Maintainer) fillOrder(y graph.NodeID, fromY, toY []graph.Dist) {
	t0 := time.Now()
	mt.space.Fill(y, fromY, toY)
	mt.ordersNs.Add(int64(time.Since(t0)))
}

// Plane returns the plane the last pass published.
func (mt *S6Maintainer) Plane() *StretchSix { return mt.s }

// RebuildNodesOwned incorporates the topology mutations whose may-use
// affected set is covered by dirty (see churn.Prober). The graph must
// already be mutated. On return Plane is a new plane, route-identical —
// section for section, at every node owned reports true for — to
// a fresh NewStretchSix(seed) build on the current graph; the previous
// one is left as it was. The global layers — the substrate delta, the
// Init-order invalidation, the block-assignment replay — still process
// the full dirty set, because every node's table derives from them; but
// the per-node table rebuilds and rewrites, the dominant cost, are
// filtered to owned nodes. Foreign tables go stale, harmlessly: a shard
// never forwards at a foreign node, and the cluster certification
// compares owned sections only. owned == nil means all nodes.
//
// An empty dirty set changes no distance row, so no tree, label, order,
// cluster or table either: the pass publishes nothing and Plane stays
// the previous plane.
func (mt *S6Maintainer) RebuildNodesOwned(dirty []graph.NodeID, owned func(graph.NodeID) bool) (MaintainReport, error) {
	rep := MaintainReport{DirtyNodes: len(dirty)}
	if len(dirty) == 0 {
		return rep, nil
	}
	old := mt.s
	n := old.g.N()
	workers := mt.cfg.BuildWorkers
	t0 := time.Now()
	lap := func(ns *int64) {
		now := time.Now()
		*ns = int64(now.Sub(t0))
		t0 = now
	}

	// 1. Dirty nodes' Init orders are stale; everything else's provably
	// is not. The substrate delta re-solves every dirty destination, and
	// its Visit hook refills that destination's order from the same two
	// rows.
	mt.space.InvalidateOrders(dirty)
	mt.ordersNs.Store(0)
	sub, subRep, err := mt.subM.Apply(dirty)
	if err != nil {
		return rep, err
	}
	rep.RebuiltTrees = subRep.RebuiltTrees
	rep.RebuiltClusters = subRep.RebuiltClusters
	rep.OrdersNs = mt.ordersNs.Load()
	// The rest of the pass should read no row.
	rows := graph.RowStats(mt.m)
	lap(&rep.SubstrateNs)

	// 2. Replay the block assignment from an identically re-seeded
	// stream against the maintained order cache. Usually the draws and
	// the verification outcome are unchanged and Sets come back
	// bit-identical; if the new topology shifts the sample-and-verify
	// loop, fall back to a full table rebuild below.
	rng := rand.New(rand.NewSource(mt.seed))
	rng.Perm(n) // the substrate's center draw precedes the assignment
	bcfg := mt.cfg.Blocks
	bcfg.Names = mt.perm.Names
	assign, err := blocks.AssignWorkers(mt.space, 2, rng, bcfg, workers)
	if err != nil {
		return rep, fmt.Errorf("core: block assignment under churn: %w", err)
	}
	rebuild := dirty
	if !reflect.DeepEqual(assign.Sets, mt.assign.Sets) {
		rep.FullRebuild = true
		rebuild = make([]graph.NodeID, n)
		for i := range rebuild {
			rebuild[i] = graph.NodeID(i)
		}
	}
	mt.assign = assign
	s := *old
	s.sub, s.uni, s.nodes = sub, assign.U, slices.Clone(old.nodes)
	lap(&rep.AssignNs)

	// 3. Rebuild dirty nodes' tables through the fresh builder's own
	// per-node constructor on the pool.
	mine := func(u graph.NodeID) bool { return owned == nil || owned(u) }
	rebuild = slices.DeleteFunc(slices.Clone(rebuild), func(u graph.NodeID) bool { return !mine(u) })
	err = parallel.ForEach(len(rebuild), workers, func(i int) error {
		u := rebuild[i]
		return buildS6Node(&s.nodes[u], int(u), mt.perm, sub, mt.space, assign, mt.nbhdSize)
	})
	if err != nil {
		return rep, err
	}
	rebuilt := make([]bool, n)
	for _, u := range rebuild {
		rebuilt[u] = true
	}
	rep.RebuiltTables = len(rebuild)
	lap(&rep.TablesNs)

	// 4. Write each changed address once, into the new plane's copy of
	// the label store. A clean node's record changes only if its
	// substrate table (a new pointer in the new substrate) or its own
	// address moved, and then only in those two fields: its dictionary
	// names no address, so it stays shared.
	s.labels = slices.Clone(old.labels)
	moved := make([]bool, n)
	for _, x := range subRep.ChangedLabels {
		s.labels[mt.perm.Name(int32(x))] = sub.LabelOf(x)
		moved[x] = true
	}
	rep.ChangedLabels = len(subRep.ChangedLabels)
	for u := range s.nodes {
		if rebuilt[u] || !mine(graph.NodeID(u)) || (old.sub.Tables[u] == sub.Tables[u] && !moved[u]) {
			continue
		}
		s.nodes[u].tab3, s.nodes[u].ownLabel = *sub.Tables[u], sub.LabelOf(graph.NodeID(u))
	}
	mt.s = &s
	lap(&rep.PatchNs)
	after := graph.RowStats(mt.m)
	rep.SSSPRuns = subRep.SSSPRuns + int(after.Misses-rows.Misses)
	rep.RowUpdates = subRep.RowUpdates + int(after.Updates-rows.Updates)
	return rep, nil
}

package rtroute

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"rtroute/internal/core"
	"rtroute/internal/graph"
	"rtroute/internal/rtz"
	"rtroute/internal/wire"
)

// MaintainReport accounts one RebuildNodes pass: how much per-node
// solver state was re-derived versus cheaply patched.
type MaintainReport = core.MaintainReport

// Maintained couples a routing scheme with incremental maintenance
// under topology churn. Build once with System.BuildMaintained, then
// after each batch of graph mutations call RebuildNodes with the union
// of the events' may-use affected sets (churn.Overlay computes them);
// Plane then returns a scheme route-identical to a from-scratch Build on
// the mutated graph.
//
// Every rebuild publishes a new plane, for all five kinds, and never
// writes one it has published: a plane fetched before a rebuild keeps
// serving the epoch it was fetched in. Callers re-fetch Plane after each
// rebuild, or Rebind a Deployment to it as Replica does. StretchSix and
// RTZStretch3 re-run per-node construction only for the dirty set and
// share every other node's tables with the previous plane; ExStretch,
// Polynomial and HopSubstrate have no incremental path yet and rebuild
// in full.
type Maintained struct {
	sys   *System
	kind  SchemeKind
	cfg   BuildConfig
	plane Scheme

	s6   *core.S6Maintainer
	rtzM *rtz.Maintainer
}

// BuildMaintained builds a scheme of the given kind exactly as Build
// would — same seed, same rng consumption, same tables — and returns it
// wrapped with incremental maintenance.
func (s *System) BuildMaintained(kind SchemeKind, opts ...BuildOption) (*Maintained, error) {
	cfg := BuildConfig{K: 2}
	for _, o := range opts {
		o(&cfg)
	}
	m := &Maintained{sys: s, kind: kind, cfg: cfg}
	switch kind {
	case StretchSix:
		mt, err := core.NewStretchSixMaintained(s.Graph, s.Metric, s.Naming, cfg.Seed, core.Stretch6Config{
			Blocks:       cfg.Blocks,
			ViaSource:    cfg.ViaSource,
			BuildWorkers: cfg.BuildWorkers,
		})
		if err != nil {
			return nil, err
		}
		m.s6 = mt
		m.plane = mt.Plane()
	case RTZStretch3:
		rng := rand.New(rand.NewSource(cfg.Seed))
		mt, err := rtz.NewMaintained(s.Graph, s.Metric, rng, rtz.Config{}, rtz.Pass{Workers: cfg.BuildWorkers})
		if err != nil {
			return nil, err
		}
		plane, err := core.NewRTZPlane(mt.Scheme(), s.Naming)
		if err != nil {
			return nil, err
		}
		m.rtzM = mt
		m.plane = plane
	case ExStretch, Polynomial, HopSubstrate:
		plane, err := s.BuildWith(kind, cfg)
		if err != nil {
			return nil, err
		}
		m.plane = plane
	default:
		return nil, fmt.Errorf("rtroute: unknown scheme kind %v", kind)
	}
	return m, nil
}

// Plane returns the scheme the last rebuild published (the build's,
// before any).
func (m *Maintained) Plane() Scheme { return m.plane }

// RebuildNodes incorporates graph mutations whose combined may-use
// affected set is dirty. The graph must already be mutated (the churn
// overlay mutates it while computing the set). On success Plane returns
// a new plane, route-identical to a fresh Build with the same
// configuration on the current graph; on failure it returns the
// previous one.
func (m *Maintained) RebuildNodes(dirty []NodeID) (MaintainReport, error) {
	return m.RebuildNodesFor(dirty, nil)
}

// RebuildNodesFor is RebuildNodes restricted to a shard's slice of the
// plane: per-node table rebuilds are filtered to the nodes owned reports
// true for, leaving foreign tables stale — harmless for a shard that
// only forwards at owned nodes, and exactly what the cluster repair
// path certifies (owned sections against a reference replica).
// StretchSix filters steps that are per-node; RTZStretch3's substrate
// state is shared across all nodes, so it takes the full delta, and the
// full-rebuild kinds rebuild in full. owned == nil behaves exactly like
// RebuildNodes.
func (m *Maintained) RebuildNodesFor(dirty []NodeID, owned func(NodeID) bool) (MaintainReport, error) {
	switch {
	case m.s6 != nil:
		rep, err := m.s6.RebuildNodesOwned(dirty, owned)
		if err != nil {
			return rep, err
		}
		m.plane = m.s6.Plane()
		return rep, nil
	case m.rtzM != nil:
		t0 := time.Now()
		sub, rep, err := m.rtzM.Apply(dirty)
		if err != nil {
			return MaintainReport{}, err
		}
		plane, err := core.NewRTZPlane(sub, m.sys.Naming)
		if err != nil {
			return MaintainReport{}, err
		}
		m.plane = plane
		return MaintainReport{
			DirtyNodes:      rep.DirtyNodes,
			RebuiltTrees:    rep.RebuiltTrees,
			RebuiltClusters: rep.RebuiltClusters,
			ChangedLabels:   len(rep.ChangedLabels),
			SSSPRuns:        rep.SSSPRuns,
			RowUpdates:      rep.RowUpdates,
			SubstrateNs:     int64(time.Since(t0)),
		}, nil
	default:
		// No incremental path for this kind: rebuild from scratch.
		t0, rows := time.Now(), graph.RowStats(m.sys.Metric)
		plane, err := m.sys.BuildWith(m.kind, m.cfg)
		if err != nil {
			return MaintainReport{}, err
		}
		m.plane = plane
		after := graph.RowStats(m.sys.Metric)
		return MaintainReport{
			DirtyNodes:    len(dirty),
			RebuiltTables: m.sys.Graph.N(),
			FullRebuild:   true,
			SSSPRuns:      int(after.Misses - rows.Misses),
			RowUpdates:    int(after.Updates - rows.Updates),
			TablesNs:      int64(time.Since(t0)),
		}, nil
	}
}

// Certify verifies the maintained plane is route-identical to a fresh
// Build with the same configuration on the current graph: it rebuilds
// from scratch and compares the two planes' per-node sections byte for
// byte. The fresh build reads a new lazy oracle and builds its own cover
// hierarchy, so every row it sees comes from a full search, never from
// the incremental updates the maintained plane was repaired with. This is
// the churn experiments' correctness oracle after every event batch; it
// costs a full build plus an encoding pass.
func (m *Maintained) Certify() error {
	sys := *m.sys
	sys.Metric = graph.NewLazyOracle(sys.Graph, 0)
	sys.hier = nil // the rebuild neither reads nor replaces m.sys's hierarchy
	fresh, err := sys.BuildWith(m.kind, m.cfg)
	if err != nil {
		return fmt.Errorf("rtroute: certification rebuild: %w", err)
	}
	return CertifyIdentical(m.plane, fresh)
}

// CertifyIdentical reports whether two forwarding planes carry identical
// routing state: the shared O(1) parameters are compared once, then the
// per-node sections, each node's tables in canonical order, are encoded
// pair by pair on every core and compared byte for byte
// (wire.SectionDiff), so nothing but the pair in hand is ever live.
// Planes that pass forward every packet identically; a failure names the
// lowest differing node.
func CertifyIdentical(a, b ForwardingPlane) error {
	sa, ea, err := core.Sections(a)
	if err != nil {
		return err
	}
	sb, eb, err := core.Sections(b)
	if err != nil {
		return err
	}
	// The Graph fields are not compared: clones differ in incidental
	// internals (seal caches, adjacency scratch) that carry no routing
	// state.
	if sa.Kind != sb.Kind {
		return fmt.Errorf("rtroute: kind mismatch: %v vs %v", sa.Kind, sb.Kind)
	}
	if !slices.Equal(sa.Names, sb.Names) {
		return fmt.Errorf("rtroute: namings differ")
	}
	if sa.K != sb.K || sa.Levels != sb.Levels || sa.ViaSource != sb.ViaSource || sa.DirectReturn != sb.DirectReturn {
		return fmt.Errorf("rtroute: shared parameters differ")
	}
	n := sa.Graph.N()
	if n != sb.Graph.N() {
		return fmt.Errorf("rtroute: %d vs %d nodes", n, sb.Graph.N())
	}
	if v := wire.SectionDiff(n, ea, eb); v >= 0 {
		return fmt.Errorf("rtroute: node %d section differs", v)
	}
	return nil
}

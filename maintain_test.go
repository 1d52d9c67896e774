package rtroute

import (
	"bytes"
	"math/rand"
	"reflect"
	"rtroute/internal/wire"
	"slices"
	"testing"

	"rtroute/internal/churn"
	"rtroute/internal/graph"
	"rtroute/internal/sim"
)

// churnSystem builds a System over a random SC graph that the test can
// mutate.
func churnSystem(t *testing.T, n int, seed int64) *System {
	t.Helper()
	g := graph.RandomSC(n, 3*n, 64, rand.New(rand.NewSource(seed)))
	sys, err := NewSystem(g, nil)
	if err != nil {
		t.Fatalf("system: %v", err)
	}
	return sys
}

// allNodes returns [0, n).
func allNodes(n int) []NodeID {
	all := make([]NodeID, n)
	for i := range all {
		all[i] = NodeID(i)
	}
	return all
}

// buildWorkerCounts are the pool sizes the maintenance properties run
// at: sequential, the host's usual two, and more workers than a small
// dirty set has nodes.
var buildWorkerCounts = []int{1, 2, 5}

// counters strips a report's wall-clock fields, leaving what must not
// depend on the worker count.
func counters(rep MaintainReport) MaintainReport {
	rep.SubstrateNs, rep.OrdersNs, rep.AssignNs, rep.TablesNs, rep.PatchNs = 0, 0, 0, 0, 0
	return rep
}

// TestRebuildAllMatchesFreshBuild is the satellite property test: after
// arbitrary topology mutations, RebuildNodes over ALL nodes must yield a
// plane bit-identical to a from-scratch Build on the mutated graph, for
// every scheme kind, at every worker count, with the same report.
func TestRebuildAllMatchesFreshBuild(t *testing.T) {
	kinds := []struct {
		name string
		kind SchemeKind
	}{
		{"stretch6", StretchSix},
		{"exstretch", ExStretch},
		{"poly", Polynomial},
		{"rtz", RTZStretch3},
		{"hop", HopSubstrate},
	}
	for _, tc := range kinds {
		t.Run(tc.name, func(t *testing.T) {
			var first MaintainReport
			for _, workers := range buildWorkerCounts {
				const n = 40
				sys := churnSystem(t, n, 0xC0FFEE+int64(tc.kind))
				m, err := sys.BuildMaintained(tc.kind, WithSeed(42), withBuildWorkers(workers))
				if err != nil {
					t.Fatalf("BuildMaintained: %v", err)
				}
				if err := m.Certify(); err != nil {
					t.Fatalf("workers %d: pre-churn certification: %v", workers, err)
				}

				ov, err := churn.NewOverlay(sys.Graph, churn.NewDamper(churn.DamperConfig{}))
				if err != nil {
					t.Fatalf("overlay: %v", err)
				}
				model := churn.NewModel(ov, 99, 1.0, churn.DefaultMix, 64)
				for i := 0; i < 6; i++ {
					ev := model.Next()
					if _, err := ov.Apply(ev); err != nil {
						t.Fatalf("apply %v: %v", ev, err)
					}
				}

				rep, err := m.RebuildNodes(allNodes(n))
				if err != nil {
					t.Fatalf("workers %d: RebuildNodes(all): %v", workers, err)
				}
				if err := m.Certify(); err != nil {
					t.Fatalf("workers %d: post-churn certification: %v", workers, err)
				}
				if workers == buildWorkerCounts[0] {
					first = counters(rep)
				} else if got := counters(rep); !reflect.DeepEqual(got, first) {
					t.Fatalf("workers %d: report %+v, on one worker %+v", workers, got, first)
				}
			}
		})
	}
}

// TestIncrementalMatchesFreshUnderEventFuzz drives random event
// sequences through the churn model and, after every event, delta-
// rebuilds only the event's may-use affected set — then certifies the
// maintained plane bit-identical to a from-scratch build. This is the
// core incremental-maintenance contract for the two kinds with a real
// delta path, held at every worker count with identical reports. Each
// rebuild must also leave the plane it replaced byte for byte as it was
// (a published epoch is never written), and the new plane must meet the
// paper's bound on the mutated graph for every pair: roundtrip stretch
// 6 for StretchSix, 3 for the substrate (Lemma 2).
func TestIncrementalMatchesFreshUnderEventFuzz(t *testing.T) {
	kinds := []struct {
		name  string
		kind  SchemeKind
		bound Dist
	}{
		{"stretch6", StretchSix, 6},
		{"rtz", RTZStretch3, 3},
	}
	for _, tc := range kinds {
		t.Run(tc.name, func(t *testing.T) {
			for run := int64(0); run < 3; run++ {
				var first []MaintainReport
				for _, workers := range buildWorkerCounts {
					const n = 32
					sys := churnSystem(t, n, 1000+run)
					m, err := sys.BuildMaintained(tc.kind, WithSeed(7+run), withBuildWorkers(workers))
					if err != nil {
						t.Fatalf("run %d: BuildMaintained: %v", run, err)
					}
					ov, err := churn.NewOverlay(sys.Graph, churn.NewDamper(churn.DamperConfig{}))
					if err != nil {
						t.Fatalf("run %d: overlay: %v", run, err)
					}
					model := churn.NewModel(ov, 500+run, 1.0, churn.DefaultMix, 64)
					var reps []MaintainReport
					for i := 0; i < 10; i++ {
						ev := model.Next()
						dirty, err := ov.Apply(ev)
						if err != nil {
							t.Fatalf("run %d event %d (%v): %v", run, i, ev, err)
						}
						prev := m.Plane()
						before, err := wire.MarshalScheme(prev)
						if err != nil {
							t.Fatalf("run %d event %d: marshal: %v", run, i, err)
						}
						rep, err := m.RebuildNodes(dirty)
						if err != nil {
							t.Fatalf("run %d event %d: RebuildNodes: %v", run, i, err)
						}
						if after, err := wire.MarshalScheme(prev); err != nil || !bytes.Equal(after, before) {
							t.Fatalf("run %d workers %d event %d: the replaced plane changed under RebuildNodes (err %v)", run, workers, i, err)
						}
						if workers == buildWorkerCounts[0] {
							checkStretchBound(t, sys, m.Plane(), tc.bound)
						}
						if rep.DirtyNodes != len(dirty) {
							t.Fatalf("run %d event %d: report dirty %d, want %d", run, i, rep.DirtyNodes, len(dirty))
						}
						if err := m.Certify(); err != nil {
							t.Fatalf("run %d workers %d event %d (%v, %d dirty): %v", run, workers, i, ev, len(dirty), err)
						}
						if tc.kind == StretchSix {
							checkRoutesMatchFresh(t, m)
						}
						reps = append(reps, counters(rep))
					}
					if first == nil {
						first = reps
					} else if !reflect.DeepEqual(reps, first) {
						t.Fatalf("run %d workers %d: reports %+v, on one worker %+v", run, workers, reps, first)
					}
				}
			}
		})
	}
}

// checkStretchBound routes every ordered pair of distinct names over
// plane and fails on a roundtrip longer than bound times the roundtrip
// distance.
func checkStretchBound(t *testing.T, sys *System, plane Scheme, bound Dist) {
	t.Helper()
	n := int32(sys.Graph.N())
	for u := int32(0); u < n; u++ {
		for v := int32(0); v < n; v++ {
			if u == v {
				continue
			}
			tr, err := plane.Roundtrip(u, v)
			if err != nil {
				t.Fatalf("roundtrip (%d,%d): %v", u, v, err)
			}
			if r := sys.R(u, v); tr.Weight() > bound*r {
				t.Fatalf("stretch %d violated at (%d,%d): %d > %d*%d", bound, u, v, tr.Weight(), bound, r)
			}
		}
	}
}

// checkRoutesMatchFresh routes every ordered pair of distinct names on
// the maintained plane and on a fresh build over the current graph, and
// fails unless each leg takes the same path, hops and weight on both.
// Certify compares section bytes; this compares what Forward reads, so
// a record field a repair left stale that the encoder never writes
// still shows.
func checkRoutesMatchFresh(t *testing.T, m *Maintained) {
	t.Helper()
	sys := *m.sys
	sys.Metric = graph.NewLazyOracle(sys.Graph, 0)
	sys.hier = nil
	fresh, err := sys.BuildWith(m.kind, m.cfg)
	if err != nil {
		t.Fatalf("fresh build: %v", err)
	}
	n := int32(sys.Graph.N())
	for u := int32(0); u < n; u++ {
		for v := int32(0); v < n; v++ {
			if u == v {
				continue
			}
			got, err := m.Plane().Roundtrip(u, v)
			if err != nil {
				t.Fatalf("maintained roundtrip (%d,%d): %v", u, v, err)
			}
			want, err := fresh.Roundtrip(u, v)
			if err != nil {
				t.Fatalf("fresh roundtrip (%d,%d): %v", u, v, err)
			}
			for leg, pair := range [2][2]*sim.Trace{{got.Out, want.Out}, {got.Back, want.Back}} {
				g, w := pair[0], pair[1]
				if g.Hops != w.Hops || g.Weight != w.Weight || !slices.Equal(g.Path, w.Path) {
					t.Fatalf("(%d,%d) leg %d: maintained %d hops weight %d, fresh %d hops weight %d", u, v, leg, g.Hops, g.Weight, w.Hops, w.Weight)
				}
			}
		}
	}
}

// TestEmptyDirtySetKeepsPlane: an event the prober finds nothing for
// changes no distance row, so a StretchSix repair of it publishes
// nothing. The plane is the same pointer after the rebuild and still
// certifies against a fresh build on the mutated graph.
func TestEmptyDirtySetKeepsPlane(t *testing.T) {
	sys := churnSystem(t, 32, 12)
	m, err := sys.BuildMaintained(StretchSix, WithSeed(3))
	if err != nil {
		t.Fatalf("BuildMaintained: %v", err)
	}
	ov, err := churn.NewOverlay(sys.Graph, churn.NewDamper(churn.DamperConfig{}))
	if err != nil {
		t.Fatalf("overlay: %v", err)
	}
	model := churn.NewModel(ov, 8, 1.0, churn.DefaultMix, 64)
	for i := 0; i < 200; i++ {
		dirty, err := ov.Apply(model.Next())
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		prev := m.Plane()
		if _, err := m.RebuildNodes(dirty); err != nil {
			t.Fatalf("event %d: RebuildNodes: %v", i, err)
		}
		if len(dirty) > 0 {
			continue
		}
		if m.Plane() != prev {
			t.Fatalf("event %d: an empty dirty set published a new plane", i)
		}
		if err := m.Certify(); err != nil {
			t.Fatalf("event %d: after an empty dirty set: %v", i, err)
		}
		return
	}
	t.Fatal("200 events and none with an empty dirty set")
}

// TestModelReplayDeterminism locks the replayability contract: two
// models over identical overlays with the same (seed, rate, mix) emit
// identical event sequences.
func TestModelReplayDeterminism(t *testing.T) {
	mk := func() (*churn.Overlay, *churn.Model) {
		g := graph.RandomSC(24, 72, 64, rand.New(rand.NewSource(5)))
		ov, err := churn.NewOverlay(g, churn.NewDamper(churn.DamperConfig{}))
		if err != nil {
			t.Fatalf("overlay: %v", err)
		}
		return ov, churn.NewModel(ov, 31337, 2.0, churn.DefaultMix, 64)
	}
	ovA, a := mk()
	ovB, b := mk()
	for i := 0; i < 200; i++ {
		ea, eb := a.Next(), b.Next()
		if ea != eb {
			t.Fatalf("event %d diverged: %v vs %v", i, ea, eb)
		}
		da, errA := ovA.Apply(ea)
		db, errB := ovB.Apply(eb)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("event %d: apply errors diverged: %v vs %v", i, errA, errB)
		}
		if len(da) != len(db) {
			t.Fatalf("event %d: dirty sets diverged: %d vs %d", i, len(da), len(db))
		}
		for j := range da {
			if da[j] != db[j] {
				t.Fatalf("event %d: dirty[%d] = %d vs %d", i, j, da[j], db[j])
			}
		}
	}
}

// TestAffectedSetIsSound checks the may-use affected set production
// uses (churn.Prober) against brute force: every node whose distance row
// (either direction) changes under a reweight must be in the set.
func TestAffectedSetIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	prober := churn.NewProber()
	for trial := 0; trial < 20; trial++ {
		g := graph.RandomSC(20, 60, 32, rng)
		n := g.N()
		// Pick an arbitrary edge.
		var u, v NodeID
		for {
			u = NodeID(rng.Intn(n))
			out := g.Out(u)
			if len(out) > 0 {
				v = out[rng.Intn(len(out))].To
				break
			}
		}
		before := make([]*graph.SSSP, n)
		beforeRev := make([]*graph.SSSP, n)
		for i := 0; i < n; i++ {
			f, r := new(graph.SSSPScratch).Dijkstra(g, NodeID(i)), new(graph.SSSPScratch).DijkstraRev(g, NodeID(i))
			before[i], beforeRev[i] = &f, &r
		}
		wNew := graph.Dist(1 + rng.Int63n(64))
		dirty := prober.Affected(g, u, v, wNew) // mutates g
		inDirty := make(map[NodeID]bool, len(dirty))
		for _, x := range dirty {
			inDirty[x] = true
		}
		for i := 0; i < n; i++ {
			x := NodeID(i)
			after, afterRev := new(graph.SSSPScratch).Dijkstra(g, x), new(graph.SSSPScratch).DijkstraRev(g, x)
			changed := false
			for j := 0; j < n; j++ {
				if after.Dist[j] != before[i].Dist[j] || afterRev.Dist[j] != beforeRev[i].Dist[j] {
					changed = true
					break
				}
			}
			if changed && !inDirty[x] {
				t.Fatalf("trial %d: node %d's rows changed under reweight (%d,%d)->%d but is not in the affected set",
					trial, x, u, v, wNew)
			}
		}
	}
}

// TestSSSPBudget locks the one-SSSP-pair-per-node invariant: over a lazy
// oracle that holds two rows (so a row fetched twice is computed twice),
// a maintained StretchSix build costs
// at most one forward and one reverse search per node plus two per center
// tree, and a repair at most two per re-solved destination plus two per
// rebuilt tree — on one worker and on several. A fourth Dijkstra creeping
// back into the per-node pass fails here. Under the default budget,
// which holds every row, a repair re-derives the rows it reads from
// their resident versions: its only searches are its trees'.
func TestSSSPBudget(t *testing.T) {
	for _, rows := range []int{2, 0} {
		for _, workers := range []int{1, 3} {
			const n = 128
			g := graph.RandomSC(n, 3*n, 64, rand.New(rand.NewSource(0x555)))
			sys, err := NewSystem(g, nil)
			if err != nil {
				t.Fatalf("system: %v", err)
			}
			if rows > 0 {
				sys.Metric = graph.NewLazyOracle(g, rows)
			}
			lazy := sys.Metric.(*LazyOracle)
			m, err := sys.BuildMaintained(StretchSix, WithSeed(7), withBuildWorkers(workers))
			if err != nil {
				t.Fatalf("BuildMaintained: %v", err)
			}
			if got := lazy.Stats().Misses; got > 2*n {
				t.Fatalf("rows %d workers %d: build ran %d oracle searches beside its tree builds, budget 2n = %d", rows, workers, got, 2*n)
			}
			ov, err := churn.NewOverlay(sys.Graph, churn.NewDamper(churn.DamperConfig{}))
			if err != nil {
				t.Fatalf("overlay: %v", err)
			}
			model := churn.NewModel(ov, 77, 1.0, churn.DefaultMix, 64)
			for i := 0; i < 8; i++ {
				dirty, err := ov.Apply(model.Next())
				if err != nil {
					t.Fatalf("event %d: %v", i, err)
				}
				before := lazy.Stats()
				rep, err := m.RebuildNodes(dirty)
				if err != nil {
					t.Fatalf("event %d: RebuildNodes: %v", i, err)
				}
				after := lazy.Stats()
				ran := int(after.Misses-before.Misses) + 2*rep.RebuiltTrees
				if rep.SSSPRuns != ran || rep.RowUpdates != int(after.Updates-before.Updates) {
					t.Fatalf("rows %d workers %d event %d: report counts %d searches and %d row updates, the oracle and the trees %d and %d",
						rows, workers, i, rep.SSSPRuns, rep.RowUpdates, ran, after.Updates-before.Updates)
				}
				if budget := 2 * (rep.RebuiltClusters + rep.RebuiltTrees); ran > budget {
					t.Fatalf("rows %d workers %d event %d: %d searches for %d re-solved destinations and %d rebuilt trees, budget %d",
						rows, workers, i, ran, rep.RebuiltClusters, rep.RebuiltTrees, budget)
				}
				if rows == 0 && rep.SSSPRuns != 2*rep.RebuiltTrees {
					t.Fatalf("workers %d event %d: %d searches with every row resident, want only the %d rebuilt trees' two each",
						workers, i, rep.SSSPRuns, rep.RebuiltTrees)
				}
			}
		}
	}
}

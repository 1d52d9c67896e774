package core

import (
	"math/rand"
	"slices"
	"testing"

	"rtroute/internal/churn"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/rtz"
)

// TestRepairWritesEachChangedLabelOnce: a StretchSix repair writes a
// changed address into the new plane's label store once and copies no
// dictionary. Across a seeded event stream, the new store differs from
// the old one at exactly the names whose substrate address changed (as
// many as the report counts) and equals the substrate's addresses at
// every name; the old plane's store is left as it was; and every clean
// node whose substrate table and own address did not move shares its
// table with the previous plane.
func TestRepairWritesEachChangedLabelOnce(t *testing.T) {
	// The benchmark's churn regime at a quarter of its size: weights in
	// [33, 64], so an event's dirty set is a few nodes, not most.
	const n = 128
	rng := rand.New(rand.NewSource(0x5ab))
	g := graph.RandomSC(n, 16*n, 64, rng)
	for u := range n {
		for _, e := range g.Out(graph.NodeID(u)) {
			if err := g.SetEdgeWeight(graph.NodeID(u), e.To, 33+(e.Weight-1)%32); err != nil {
				t.Fatal(err)
			}
		}
	}
	perm := names.Random(n, rng)
	mt, err := NewStretchSixMaintained(g, graph.NewLazyOracle(g, 0), perm, 9, Stretch6Config{BuildWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ov, err := churn.NewOverlay(g, churn.NewDamper(churn.DamperConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	model := churn.NewModel(ov, 31, 1, churn.DefaultMix, 64)
	model.SetMinWeight(33)
	var changed, shared int
	for i := 0; i < 40; i++ {
		dirty, err := ov.Apply(model.Next())
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		old := mt.Plane()
		before := cloneLabels(old.labels)
		rep, err := mt.RebuildNodesOwned(dirty, nil)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		s := mt.Plane()
		if len(dirty) == 0 {
			if s != old || rep != (MaintainReport{}) {
				t.Fatalf("event %d: an empty dirty set published a new plane or reported work: %+v", i, rep)
			}
			continue
		}
		for nm, l := range old.labels {
			if !l.Equal(before[nm]) {
				t.Fatalf("event %d: the old plane's address of name %d changed under the repair", i, nm)
			}
		}
		diff := 0
		for nm, l := range s.labels {
			if !l.Equal(s.sub.LabelOf(graph.NodeID(perm.Node(int32(nm))))) {
				t.Fatalf("event %d: the store's address of name %d is not the substrate's", i, nm)
			}
			if !l.Equal(before[nm]) {
				diff++
			}
		}
		if diff != rep.ChangedLabels {
			t.Fatalf("event %d: the store changed at %d names, the report counts %d", i, diff, rep.ChangedLabels)
		}
		changed += diff
		if rep.FullRebuild {
			continue
		}
		for u, tab := range old.nodes {
			if slices.Contains(dirty, graph.NodeID(u)) || tab.tab3 != s.sub.Tables[u] || !tab.ownLabel.Equal(s.labels[tab.selfName]) {
				continue
			}
			if s.nodes[u] != tab {
				t.Fatalf("event %d: clean node %d whose table and address did not move got a new table", i, u)
			}
			shared++
		}
	}
	t.Logf("%d addresses changed, %d clean tables shared", changed, shared)
	if changed == 0 || shared == 0 {
		t.Fatalf("the stream changed %d addresses and shared %d tables: it exercises neither side", changed, shared)
	}
}

// cloneLabels copies a label store down to its light-hop slices.
func cloneLabels(ls []rtz.Label) []rtz.Label {
	out := slices.Clone(ls)
	for i := range out {
		out[i].TreeLabel.Light = slices.Clone(out[i].TreeLabel.Light)
	}
	return out
}

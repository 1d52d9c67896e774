package graph

import (
	"math/rand"
	"testing"
)

// TestLazyOracleInvalidatesOnMutation is the stale-row regression test:
// before the generation check, a LazyOracle kept serving rows measured on
// the pre-mutation graph, silently wrong once churn reweights an edge.
func TestLazyOracleInvalidatesOnMutation(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(1, 2, 10)
	g.MustAddEdge(2, 0, 10)

	o := NewLazyOracle(g, 8)
	if d := o.FromSource(0)[2]; d != 20 {
		t.Fatalf("d(0,2) = %d before mutation, want 20", d)
	}
	if d := o.ToSink(2)[0]; d != 20 {
		t.Fatalf("reverse d(0,2) = %d before mutation, want 20", d)
	}

	if err := g.SetEdgeWeight(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if d := o.FromSource(0)[2]; d != 11 {
		t.Fatalf("d(0,2) = %d after reweight, want 11 (stale cached row served)", d)
	}
	if d := o.ToSink(2)[0]; d != 11 {
		t.Fatalf("reverse d(0,2) = %d after reweight, want 11 (stale cached row served)", d)
	}
	// A reweighting keeps the cache: both rows were re-derived from
	// their resident versions, with no flush and no second search.
	if st := o.Stats(); st.Updates != 2 || st.Misses != 2 || st.Invalidations != 0 {
		t.Fatalf("stats after a reweight: %+v, want 2 updates of the 2 computed rows and no flush", st)
	}

	// Down/up flap round-trips the row to its original value.
	if err := g.SetEdgeWeight(1, 2, DownWeight); err != nil {
		t.Fatal(err)
	}
	if d := o.FromSource(1)[2]; d < DownWeight {
		t.Fatalf("d(1,2) = %d with edge down, want >= DownWeight (path via down edge)", d)
	}
	if err := g.SetEdgeWeight(1, 2, 10); err != nil {
		t.Fatal(err)
	}
	if d := o.FromSource(0)[2]; d != 20 {
		t.Fatalf("d(0,2) = %d after edge recovery, want 20", d)
	}
}

// TestLazyOracleGenerationStableAcrossQueries checks that queries alone
// never flush the cache: hits keep accumulating while the graph is quiet.
func TestLazyOracleGenerationStableAcrossQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := RandomSC(40, 80, 16, rng)
	g.Seal()
	o := NewLazyOracle(g, 16)
	for i := 0; i < 10; i++ {
		o.FromSource(3)
	}
	st := o.Stats()
	if st.Invalidations != 0 {
		t.Fatalf("queries without mutation flushed the cache: %+v", st)
	}
	if st.Hits < 9 {
		t.Fatalf("expected repeat queries to hit, got %+v", st)
	}
}

package churn

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rtroute/internal/graph"
)

// TestApplyBatchEqualsPerEventApply is the batch form's defining
// property: on twin overlays over cloned graphs, ApplyBatch(events)
// returns exactly the sorted union of the per-event Apply sets plus the
// Advance(last.At) releases, and leaves graph and counters identical —
// over 200 seeded batches that take links down, bring them back (past a
// damper tuned to suppress and release within the run), perturb weights
// and fail endpoints. A third twin draws the same batches with
// Model.NextBatch and must agree on events and dirty sets too.
func TestApplyBatchEqualsPerEventApply(t *testing.T) {
	const n = 24
	damper := DamperConfig{Penalty: 1000, Suppress: 1000, Reuse: 750, HalfLife: 2}
	kinds := make(map[EventKind]int)
	var releases int64
	for seed := int64(1); seed <= 10; seed++ {
		base := graph.RandomSC(n, 4*n, 8, rand.New(rand.NewSource(seed)))
		twin := func() *Overlay {
			ov, err := NewOverlay(base.Clone(), NewDamper(damper))
			if err != nil {
				t.Fatal(err)
			}
			return ov
		}
		perEvent, batched, drawn := twin(), twin(), twin()
		model := NewModel(perEvent, seed+100, 5, Mix{}, 16)
		batchModel := NewModel(drawn, seed+100, 5, Mix{}, 16)
		for b := 0; b < 20; b++ {
			k := 1 + (b+int(seed))%6
			// The reference: the hand-rolled loop ApplyBatch replaced.
			var events []Event
			want := make(map[graph.NodeID]bool)
			for i := 0; i < k; i++ {
				ev := model.Next()
				events = append(events, ev)
				kinds[ev.Kind]++
				ds, err := perEvent.Apply(ev)
				if err != nil {
					t.Fatalf("seed %d batch %d: apply %v: %v", seed, b, ev, err)
				}
				for _, v := range ds {
					want[v] = true
				}
			}
			released, err := perEvent.Advance(events[k-1].At)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range released {
				want[v] = true
			}
			wantDirty := make([]graph.NodeID, 0, len(want))
			for v := range want {
				wantDirty = append(wantDirty, v)
			}
			SortNodeIDs(wantDirty)

			got, err := batched.ApplyBatch(events)
			if err != nil {
				t.Fatalf("seed %d batch %d: ApplyBatch: %v", seed, b, err)
			}
			if len(got) != len(wantDirty) || (len(got) > 0 && !reflect.DeepEqual(got, wantDirty)) {
				t.Fatalf("seed %d batch %d: ApplyBatch dirty %v, per-event union %v", seed, b, got, wantDirty)
			}
			gotEvents, gotDrawn, err := batchModel.NextBatch(k)
			if err != nil {
				t.Fatalf("seed %d batch %d: NextBatch: %v", seed, b, err)
			}
			if !reflect.DeepEqual(gotEvents, events) {
				t.Fatalf("seed %d batch %d: NextBatch drew %v, Next drew %v", seed, b, gotEvents, events)
			}
			if len(gotDrawn) != len(wantDirty) || (len(gotDrawn) > 0 && !reflect.DeepEqual(gotDrawn, wantDirty)) {
				t.Fatalf("seed %d batch %d: NextBatch dirty %v, per-event union %v", seed, b, gotDrawn, wantDirty)
			}
			for _, ov := range []*Overlay{batched, drawn} {
				if ov.Stats() != perEvent.Stats() || len(ov.down) != len(perEvent.down) ||
					!reflect.DeepEqual(ov.failed, perEvent.failed) || ov.SuppressedCount() != perEvent.SuppressedCount() {
					t.Fatalf("seed %d batch %d: overlay state diverged: %+v vs %+v", seed, b, ov.Stats(), perEvent.Stats())
				}
				for u := 0; u < n; u++ {
					for _, e := range perEvent.G.Out(graph.NodeID(u)) {
						if w, _ := ov.G.EdgeWeight(graph.NodeID(u), e.To); w != e.Weight {
							t.Fatalf("seed %d batch %d: graphs diverged at (%d,%d): %d vs %d", seed, b, u, e.To, w, e.Weight)
						}
					}
				}
			}
		}
		releases += perEvent.Stats().DamperReleases
	}
	for _, k := range []EventKind{EdgeDown, EdgeUp, WeightChange, NodeFail, NodeRecover} {
		if kinds[k] == 0 {
			t.Fatalf("200 batches drew no %v event", k)
		}
	}
	if releases == 0 {
		t.Fatal("no damper release in 200 batches: the Advance leg went untested")
	}
}

// TestApplyBatchRejectsInadmissibleEvent: an event the overlay cannot
// apply fails the batch with the event's index, as Repair hooks report.
func TestApplyBatchRejectsInadmissibleEvent(t *testing.T) {
	ov, err := NewOverlay(graph.RandomSC(8, 24, 4, rand.New(rand.NewSource(3))), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ov.ApplyBatch([]Event{{Kind: NodeFail, Node: 2}, {Kind: EventKind(99)}})
	if err == nil || !strings.Contains(err.Error(), "event 1") {
		t.Fatalf("unknown event kind at index 1: got %v", err)
	}
	// A weight the graph would refuse is an error too, not the prober's
	// panic: weight 0 decodes off the wire like any other.
	_, err = ov.ApplyBatch([]Event{{Kind: WeightChange, U: 0, V: ov.G.Out(0)[0].To, Weight: 0}})
	if err == nil || !strings.Contains(err.Error(), "outside [1, DownWeight]") {
		t.Fatalf("weight 0 on a live edge: got %v", err)
	}
}

// Stats returns a snapshot of the overlay counters.
func (ov *Overlay) Stats() OverlayStats { return ov.stats }

// SuppressedCount returns the number of links the flap damper currently
// quarantines (0 without a damper).
func (ov *Overlay) SuppressedCount() int {
	if ov.damper == nil {
		return 0
	}
	return ov.damper.SuppressedCount()
}

package churn

import (
	"fmt"
	"math/rand"
	"sort"

	"rtroute/internal/graph"
)

// linkID keys per-directed-edge churn state.
type linkID struct{ U, V graph.NodeID }

// downState is the record of one administratively down edge.
type downState struct {
	// Weight is the weight to restore on recovery. WeightChange events
	// hitting a down edge retarget this, not the live graph.
	Weight graph.Dist
	// WantUp marks an edge whose recovery arrived while the flap damper
	// had it suppressed: it comes back when the damper releases it.
	WantUp bool
}

// OverlayStats counts what the overlay did, for the telemetry plane.
type OverlayStats struct {
	Events          int64 // events applied
	TopologyChanges int64 // events that actually moved the metric
	SuppressedFlaps int64 // recoveries deferred by the flap damper
	DamperReleases  int64 // suppressed links finally restored
}

// Overlay drives a mutable working graph under churn. The graph is
// mutated in place — weights only, never adjacency — so every derived
// structure (port tables, routing schemes, oracles) keys against a stable
// topology skeleton while the metric moves underneath. Each mutation
// computes the may-use affected node set (see Prober) so the scheme
// maintainers can delta-rebuild exactly the state the event can touch.
//
// The overlay guards an invariant the rest of the plane relies on: the
// graph stays strongly connected over its live (weight < DownWeight)
// edges, so every distance stays finite and every scheme build succeeds.
type Overlay struct {
	G      *graph.Graph
	damper *Damper

	down   map[linkID]*downState
	failed []bool
	stats  OverlayStats
	// prober is the bounded affected-set probe (probe.go), scratch
	// shared across the overlay's whole event stream.
	prober *Prober
}

// NewOverlay wraps g (typically a clone of a pristine base graph) for
// churn. damper may be nil (no flap damping).
func NewOverlay(g *graph.Graph, damper *Damper) (*Overlay, error) {
	if !graph.StronglyConnected(g) {
		return nil, fmt.Errorf("churn: base graph is not strongly connected")
	}
	return &Overlay{
		G:      g,
		damper: damper,
		down:   make(map[linkID]*downState),
		failed: make([]bool, g.N()),
		prober: NewProber(),
	}, nil
}

// EdgeDown reports whether (u, v) is currently administratively down.
func (ov *Overlay) EdgeDown(u, v graph.NodeID) bool {
	_, ok := ov.down[linkID{u, v}]
	return ok
}

// NodeFailed reports whether v's endpoint is currently failed.
func (ov *Overlay) NodeFailed(v graph.NodeID) bool { return ov.failed[v] }

// Apply incorporates one event into the working graph and returns the
// may-use affected node set — every node whose anchored distance rows
// (either direction) could have changed, including tie changes. An empty
// set means the metric did not move (endpoint events, deferred
// recoveries, perturbations of down edges).
func (ov *Overlay) Apply(ev Event) ([]graph.NodeID, error) {
	ov.stats.Events++
	switch ev.Kind {
	case EdgeDown:
		key := linkID{ev.U, ev.V}
		if _, isDown := ov.down[key]; isDown {
			return nil, nil
		}
		if ov.wouldDisconnect(ev.U, ev.V) {
			return nil, fmt.Errorf("churn: downing (%d,%d) would disconnect the live graph", ev.U, ev.V)
		}
		w, ok := ov.G.EdgeWeight(ev.U, ev.V)
		if !ok {
			return nil, fmt.Errorf("churn: no edge (%d,%d)", ev.U, ev.V)
		}
		ov.down[key] = &downState{Weight: w}
		if ov.damper != nil {
			ov.damper.Flap(ev.U, ev.V, ev.At)
		}
		return ov.mutate(ev.U, ev.V, graph.DownWeight)

	case EdgeUp:
		key := linkID{ev.U, ev.V}
		ds, isDown := ov.down[key]
		if !isDown {
			return nil, nil
		}
		if ov.damper != nil && ov.damper.Suppressed(ev.U, ev.V, ev.At) {
			ds.WantUp = true
			ov.stats.SuppressedFlaps++
			return nil, nil
		}
		delete(ov.down, key)
		return ov.mutate(ev.U, ev.V, ds.Weight)

	case WeightChange:
		if ds, isDown := ov.down[linkID{ev.U, ev.V}]; isDown {
			ds.Weight = ev.Weight
			return nil, nil
		}
		return ov.mutate(ev.U, ev.V, ev.Weight)

	case NodeFail:
		ov.failed[ev.Node] = true
		return nil, nil

	case NodeRecover:
		ov.failed[ev.Node] = false
		return nil, nil
	}
	return nil, fmt.Errorf("churn: unknown event kind %v", ev.Kind)
}

// Advance moves the damper clock to time at, restoring any suppressed
// links whose deferred recovery is now allowed. Returns the union of the
// affected sets of those restorations.
func (ov *Overlay) Advance(at float64) ([]graph.NodeID, error) {
	if ov.damper == nil {
		return nil, nil
	}
	var dirty []graph.NodeID
	seen := make([]bool, ov.G.N())
	for _, key := range ov.damper.Advance(at) {
		ds, isDown := ov.down[key]
		if !isDown || !ds.WantUp {
			continue
		}
		delete(ov.down, key)
		ov.stats.DamperReleases++
		d, err := ov.mutate(key.U, key.V, ds.Weight)
		if err != nil {
			return nil, err
		}
		for _, v := range d {
			if !seen[v] {
				seen[v] = true
				dirty = append(dirty, v)
			}
		}
	}
	SortNodeIDs(dirty)
	return dirty, nil
}

// ApplyBatch applies events in order, advances the damper clock to the
// last event's time, and returns the sorted union of every affected set
// — the dirty set one repair pass must rebuild. Every replica of a
// topology folds a batch in through this one function, which is what
// keeps replicas fed the same batches in lockstep.
func (ov *Overlay) ApplyBatch(events []Event) ([]graph.NodeID, error) {
	return ov.applyBatch(len(events), func(i int) Event { return events[i] })
}

// applyBatch is ApplyBatch over k events produced one at a time: next(i)
// runs after event i-1 has been applied, so a generator can draw each
// event against the state its predecessors left (Model.NextBatch).
func (ov *Overlay) applyBatch(k int, next func(i int) Event) ([]graph.NodeID, error) {
	var dirty []graph.NodeID
	seen := make([]bool, ov.G.N())
	add := func(ds []graph.NodeID) {
		for _, v := range ds {
			if !seen[v] {
				seen[v] = true
				dirty = append(dirty, v)
			}
		}
	}
	var at float64
	for i := 0; i < k; i++ {
		ev := next(i)
		ds, err := ov.Apply(ev)
		if err != nil {
			return nil, fmt.Errorf("event %d (%v): %w", i, ev, err)
		}
		add(ds)
		at = ev.At
	}
	released, err := ov.Advance(at)
	if err != nil {
		return nil, err
	}
	add(released)
	SortNodeIDs(dirty)
	return dirty, nil
}

// mutate reweights (u, v) and returns the may-use affected set.
func (ov *Overlay) mutate(u, v graph.NodeID, wNew graph.Dist) ([]graph.NodeID, error) {
	wOld, ok := ov.G.EdgeWeight(u, v)
	if !ok {
		return nil, fmt.Errorf("churn: no edge (%d,%d)", u, v)
	}
	if wNew < 1 || wNew > graph.DownWeight {
		return nil, fmt.Errorf("churn: weight %d for (%d,%d) outside [1, DownWeight]", wNew, u, v)
	}
	if wOld == wNew {
		return nil, nil
	}
	dirty := ov.prober.Affected(ov.G, u, v, wNew)
	ov.stats.TopologyChanges++
	return dirty, nil
}

// wouldDisconnect reports whether taking (u, v) down would break strong
// connectivity of the live graph (edges below DownWeight).
func (ov *Overlay) wouldDisconnect(u, v graph.NodeID) bool {
	return !liveStronglyConnected(ov.G, linkID{u, v})
}

// liveStronglyConnected checks strong connectivity over live edges,
// treating skip as down: every node must be reachable from node 0 going
// forward and reach node 0 going backward.
func liveStronglyConnected(g *graph.Graph, skip linkID) bool {
	n := g.N()
	if n == 0 {
		return true
	}
	reached := make([]bool, n)
	stack := []graph.NodeID{0}
	reached[0] = true
	count := 1
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Out(x) {
			if e.Weight >= graph.DownWeight || (x == skip.U && e.To == skip.V) {
				continue
			}
			if !reached[e.To] {
				reached[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	if count < n {
		return false
	}
	for i := range reached {
		reached[i] = false
	}
	stack = append(stack[:0], 0)
	reached[0] = true
	count = 1
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.In(x) {
			w := e.Weight
			if w >= graph.DownWeight || (e.From == skip.U && x == skip.V) {
				continue
			}
			if !reached[e.From] {
				reached[e.From] = true
				count++
				stack = append(stack, e.From)
			}
		}
	}
	return count == n
}

// pickDown deterministically samples one down edge (sorted key order, so
// replay is exact across runs).
func (ov *Overlay) pickDown(rng *rand.Rand) (linkID, bool) {
	if len(ov.down) == 0 {
		return linkID{}, false
	}
	keys := make([]linkID, 0, len(ov.down))
	for k := range ov.down {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].U != keys[j].U {
			return keys[i].U < keys[j].U
		}
		return keys[i].V < keys[j].V
	})
	return keys[rng.Intn(len(keys))], true
}

// pickFailed deterministically samples one failed node.
func (ov *Overlay) pickFailed(rng *rand.Rand) (graph.NodeID, bool) {
	var failed []graph.NodeID
	for v, f := range ov.failed {
		if f {
			failed = append(failed, graph.NodeID(v))
		}
	}
	if len(failed) == 0 {
		return 0, false
	}
	return failed[rng.Intn(len(failed))], true
}

// SortNodeIDs sorts a dirty set in place (the canonical order every
// affected set and union is reported in).
func SortNodeIDs(s []graph.NodeID) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

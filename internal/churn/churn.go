// Package churn is the dynamic-topology plane: a deterministic, seeded
// model of link and node churn driving a mutable overlay over the live
// routing graph, the may-use affected-set machinery that turns each
// topology event into the (provably sufficient) dirty node set the
// incremental scheme maintainers consume, and an RFC 2439-style flap
// damper that quarantines unstable links.
//
// Design decisions, mirrored in DESIGN.md:
//
//   - Edges churn in place. A down edge keeps its adjacency slot and port
//     label and has its weight pushed to graph.DownWeight, so the CSR
//     layout, port numbering and neighbor lists every routing table was
//     built against never shift under churn. On a graph kept strongly
//     connected over its live edges, a DownWeight edge is never on a
//     shortest path and never in a shortest-path tie, so it vanishes from
//     every scheme's view of the metric while staying addressable (a
//     stale route that still points at it fails typed, it does not
//     vanish into a missing port).
//
//   - Node failure is an endpoint-availability event, not a topology
//     event. Removing a vertex would change n and the TINN name universe,
//     making "rebuild incrementally, certify against a fresh build"
//     incoherent mid-run. A failed node stops originating and answering
//     roundtrips (the workload excludes it; traffic addressed to it
//     counts as dropped) but keeps forwarding transit — the model of a
//     host losing its service while its router stays up. Link events
//     carry all actual topology churn.
//
//   - Every event stream is replayable from (seed, rate, mix): events are
//     Poisson-clocked (exponential inter-arrival at the given rate) and
//     all choices come from one seeded source, with deterministic
//     fallbacks when a pick is inadmissible (e.g. a down-pick whose loss
//     would disconnect the live graph degrades to a perturbation).
package churn

import (
	"fmt"
	"math/rand"

	"rtroute/internal/graph"
)

// EventKind classifies a topology event.
type EventKind int8

const (
	// EdgeDown takes a live edge administratively down.
	EdgeDown EventKind = iota
	// EdgeUp restores a down edge at its pre-down weight (subject to
	// flap damping: a suppressed link stays quarantined until reuse).
	EdgeUp
	// WeightChange perturbs a live edge's weight.
	WeightChange
	// NodeFail marks a node's endpoint down (transit unaffected).
	NodeFail
	// NodeRecover restores a failed node's endpoint.
	NodeRecover
)

func (k EventKind) String() string {
	switch k {
	case EdgeDown:
		return "edge-down"
	case EdgeUp:
		return "edge-up"
	case WeightChange:
		return "weight-change"
	case NodeFail:
		return "node-fail"
	case NodeRecover:
		return "node-recover"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one churn event. Edge events carry (U, V); node events carry
// Node. At is the Poisson event time in abstract seconds.
type Event struct {
	Kind   EventKind
	U, V   graph.NodeID
	Node   graph.NodeID
	Weight graph.Dist // WeightChange: the new weight
	At     float64
}

func (e Event) String() string {
	switch e.Kind {
	case NodeFail, NodeRecover:
		return fmt.Sprintf("%s node=%d t=%.3f", e.Kind, e.Node, e.At)
	case WeightChange:
		return fmt.Sprintf("%s edge=(%d,%d) w=%d t=%.3f", e.Kind, e.U, e.V, e.Weight, e.At)
	}
	return fmt.Sprintf("%s edge=(%d,%d) t=%.3f", e.Kind, e.U, e.V, e.At)
}

// Mix weighs the event kinds. Zero-value mixes select DefaultMix. The
// weights need not be normalized.
type Mix struct {
	EdgeDown    float64
	EdgeUp      float64
	Perturb     float64
	NodeFail    float64
	NodeRecover float64
}

// DefaultMix flaps links (down slightly more often than up, so a few
// links are usually down), perturbs weights, and fails the occasional
// endpoint.
var DefaultMix = Mix{EdgeDown: 3, EdgeUp: 3, Perturb: 3, NodeFail: 0.5, NodeRecover: 0.5}

func (m Mix) total() float64 {
	return m.EdgeDown + m.EdgeUp + m.Perturb + m.NodeFail + m.NodeRecover
}

// Model is the seeded churn event generator. It observes (but does not
// mutate) the overlay's state to keep its picks admissible; the caller
// feeds each generated event back through Overlay.Apply, or draws whole
// batches with NextBatch, which does.
type Model struct {
	ov    *Overlay
	rng   *rand.Rand
	rate  float64
	mix   Mix
	clock float64
	edges []Event // candidate edge list (U, V fields used)
	minW  graph.Dist
	maxW  graph.Dist
}

// NewModel creates the generator. rate is events per abstract second;
// the zero Mix selects DefaultMix. Perturbed weights are drawn uniformly
// from [1, maxW] (maxW <= 0 uses the graph's current maximum weight).
func NewModel(ov *Overlay, seed int64, rate float64, mix Mix, maxW graph.Dist) *Model {
	if mix.total() <= 0 {
		mix = DefaultMix
	}
	if rate <= 0 {
		rate = 1
	}
	if maxW <= 0 {
		maxW = ov.G.MaxWeight()
		if maxW >= graph.DownWeight {
			maxW = 64
		}
	}
	m := &Model{ov: ov, rng: rand.New(rand.NewSource(seed)), rate: rate, mix: mix, minW: 1, maxW: maxW}
	n := ov.G.N()
	for u := 0; u < n; u++ {
		for _, e := range ov.G.Out(graph.NodeID(u)) {
			m.edges = append(m.edges, Event{U: graph.NodeID(u), V: e.To})
		}
	}
	return m
}

// SetMinWeight raises the floor of the perturbation weight domain
// (default 1), matching a graph whose weights live in [min, max]. A
// weight domain with max/min under 2 keeps any single edge from
// dominating its head node's entry, which is what keeps per-event
// affected sets proportional to real path diversity.
func (m *Model) SetMinWeight(w graph.Dist) {
	if w >= 1 && w <= m.maxW {
		m.minW = w
	}
}

// Next generates the next event. The event is admissible against the
// overlay state at generation time (a down-pick keeps the live graph
// strongly connected, an up-pick names a down edge, and so on);
// inadmissible draws degrade deterministically to a WeightChange on a
// live edge, so the stream never stalls.
func (m *Model) Next() Event {
	m.clock += m.rng.ExpFloat64() / m.rate
	kind := m.pickKind()
	const retries = 8
	switch kind {
	case EdgeDown:
		for i := 0; i < retries; i++ {
			c := m.edges[m.rng.Intn(len(m.edges))]
			if m.ov.EdgeDown(c.U, c.V) {
				continue
			}
			if !m.ov.wouldDisconnect(c.U, c.V) {
				return Event{Kind: EdgeDown, U: c.U, V: c.V, At: m.clock}
			}
		}
	case EdgeUp:
		if pick, ok := m.ov.pickDown(m.rng); ok {
			return Event{Kind: EdgeUp, U: pick.U, V: pick.V, At: m.clock}
		}
	case NodeFail:
		for i := 0; i < retries; i++ {
			v := graph.NodeID(m.rng.Intn(m.ov.G.N()))
			if !m.ov.failed[v] {
				return Event{Kind: NodeFail, Node: v, At: m.clock}
			}
		}
	case NodeRecover:
		if pick, ok := m.ov.pickFailed(m.rng); ok {
			return Event{Kind: NodeRecover, Node: pick, At: m.clock}
		}
	}
	// WeightChange, or the deterministic fallback for every starved pick.
	for i := 0; ; i++ {
		c := m.edges[m.rng.Intn(len(m.edges))]
		if !m.ov.EdgeDown(c.U, c.V) || i >= retries {
			w := m.minW + graph.Dist(m.rng.Int63n(int64(m.maxW-m.minW+1)))
			return Event{Kind: WeightChange, U: c.U, V: c.V, Weight: w, At: m.clock}
		}
	}
}

// NextBatch draws k events, applying each to the overlay before the next
// is drawn (a pick is admissible only against the state its
// predecessors left), and closes the batch as Overlay.ApplyBatch does.
// It returns the events — ready to replay on other replicas through
// ApplyBatch — and the batch's sorted dirty set.
func (m *Model) NextBatch(k int) ([]Event, []graph.NodeID, error) {
	events := make([]Event, 0, k)
	dirty, err := m.ov.applyBatch(k, func(int) Event {
		events = append(events, m.Next())
		return events[len(events)-1]
	})
	return events, dirty, err
}

func (m *Model) pickKind() EventKind {
	x := m.rng.Float64() * m.mix.total()
	if x -= m.mix.EdgeDown; x < 0 {
		return EdgeDown
	}
	if x -= m.mix.EdgeUp; x < 0 {
		return EdgeUp
	}
	if x -= m.mix.Perturb; x < 0 {
		return WeightChange
	}
	if x -= m.mix.NodeFail; x < 0 {
		return NodeFail
	}
	return NodeRecover
}

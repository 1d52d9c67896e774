// Package rtz implements the name-dependent (topology-dependent) roundtrip
// routing substrates the paper imports from Roditty, Thorup and Zwick
// ("Roundtrip spanners and roundtrip routing in directed graphs", SODA'02):
//
//   - Scheme: the O~(sqrt n)-space stretch-3 roundtrip scheme of Lemma 2,
//     with topology-dependent addresses R3(v) and the one-way guarantee
//     p(u,v) <= r(u,v) + d(u,v) used throughout §2's analysis.
//
//   - HopTable, Handshake and ForwardHop: the node-local side of the
//     double-tree-cover substrate behind Lemma 5, the R2(u,v) "handshake"
//     labels and Hop(u,v) legs the §3 scheme stores in its distributed
//     dictionary. A node's table is its memberships in the paper's own
//     Theorem 13 covers (cover.Hierarchy.Memberships; per §4.4 this
//     improves RTZ's roundtrip stretch to 4k-2+eps); core.HopPlane serves
//     the substrate on its own.
//
// Construction of Scheme, following Thorup–Zwick style sampling adapted to
// the roundtrip metric (the passes themselves live on Maintainer: a build
// is a repair of everything from empty tables):
//
//   - Sample a center set A (about sqrt(n ln n) nodes). For each center w,
//     build a full double-tree: every node stores its next-hop port toward
//     w (in-tree) and O(1) tree-routing state for w's out-tree.
//   - a(v) = the center nearest to v in roundtrip distance; the address
//     R3(v) = (v, a(v), v's label in a(v)'s out-tree).
//   - Every node x with r(x,y) < r(y,A) stores a direct entry for y: the
//     first-hop port of a shortest x->y path. Crucially this cluster
//     C(y) = {x : r(x,y) < r(y,A)} is defined by the DESTINATION's
//     center-radius, which makes it closed under shortest-path subpaths
//     (if x' is on a shortest x->y path then r(x',y) <= r(x,y) < r(y,A)),
//     so a direct route never strands a packet at a node without an entry.
//
// Routing x->y with R3(y): deliver if x = y; follow the direct entry if
// present; otherwise climb the in-tree of a(y) and descend a(y)'s
// out-tree using y's tree label. One-way cost: d(x,y) when direct, else
// d(x,a(y)) + d(a(y),y) <= d(x,y) + r(y,A) <= d(x,y) + r(x,y) since
// x outside C(y) means r(y,A) <= r(x,y). A roundtrip that carries R3(s)
// back therefore costs at most r(s,t) + 2*r(s,t) = 3*r(s,t): stretch 3.
package rtz

import (
	"fmt"
	"math/rand"
	"slices"

	"rtroute/internal/graph"
	"rtroute/internal/sealed"
	"rtroute/internal/tree"
)

// Label is the topology-dependent address R3(v): o(log^2 n) bits.
type Label struct {
	Node      graph.NodeID // v itself (topological index)
	CenterIdx int32        // index of a(v) in the scheme's center list
	Center    graph.NodeID // a(v)
	TreeLabel tree.Label   // v's address in a(v)'s out-tree
}

// Words returns the label size in machine words for header accounting.
func (l Label) Words() int { return 3 + l.TreeLabel.Words() }

// Equal compares two addresses structurally (a tree label carries a
// light-hop slice, so == does not apply).
func (l Label) Equal(o Label) bool {
	return l.Node == o.Node && l.CenterIdx == o.CenterIdx && l.Center == o.Center &&
		l.TreeLabel.Tin == o.TreeLabel.Tin && slices.Equal(l.TreeLabel.Light, o.TreeLabel.Light)
}

// Phase tracks the progress of a one-way route in the packet header.
type Phase int8

const (
	// PhaseSeek means the packet is climbing toward the destination's
	// center (or following direct entries when it meets them).
	PhaseSeek Phase = iota
	// PhaseDescend means the packet is inside the center's out-tree.
	PhaseDescend
	// PhaseDirect means the packet is on a stored shortest path to the
	// destination; it never leaves this phase.
	PhaseDirect
)

// Header is the mutable routing state carried by a one-way packet.
type Header struct {
	Dest  graph.NodeID
	Label Label
	Phase Phase
}

// Words returns the header size in machine words.
func (h Header) Words() int { return 2 + h.Label.Words() }

// Table is the node-local storage of the stretch-3 scheme. All slices are
// indexed by center index. A published table is never written: a repair
// that changes a node's state gives it a new Table (see Maintainer.Apply).
//
// The fields come in the order a hop reads them (Forward): Self, the
// direct-entry filter and slots, then the per-center arrays. A table is
// 96 bytes, so a record that holds one by value near its start keeps
// every field a hop reads within two cache lines.
type Table struct {
	Self graph.NodeID
	// filter has filterMask(y) set for every direct destination y. It is
	// derived by CompileDirect, like the empty slots, and never encoded:
	// a lookup whose bits are not all set misses without a probe.
	filter uint64
	// direct maps destination -> first-hop port of a shortest path, for
	// every destination whose cluster contains this node.
	direct     sealed.Table[graph.PortID]
	InPorts    []graph.PortID // next-hop port toward each center
	TreeStates []tree.State   // O(1) routing state in each center's out-tree
}

// filterMask is dst's two bits in a direct-entry filter, drawn from the
// top of its hash: the slot index reads the low bits.
func filterMask(dst graph.NodeID) uint64 {
	h := sealed.Hash(dst)
	return 1<<(h>>26) | 1<<(h>>20&63)
}

// Words returns the table size in machine words (the O~(sqrt n) of §2.1).
func (t *Table) Words() int {
	return 1 + len(t.InPorts) + 5*len(t.TreeStates) + 2*t.direct.Len()
}

// CompileDirect sets the direct entries of a table under construction,
// and the filter in front of them: n of them, the i-th toward dst(i) on
// port(i). Destinations must be distinct and non-negative.
func (t *Table) CompileDirect(n int, dst func(i int) graph.NodeID, port func(i int) graph.PortID) {
	t.direct = sealed.CompileFunc(n, dst, port)
	t.filter = 0
	for i := range n {
		t.filter |= filterMask(dst(i))
	}
}

// DirectPort returns the stored first-hop port toward dst, if any. Most
// lookups on a hop miss (a destination's cluster is small), and the
// filter answers most of those without touching the slots.
func (t *Table) DirectPort(dst graph.NodeID) (graph.PortID, bool) {
	if m := filterMask(dst); t.filter&m != m {
		return 0, false
	}
	return t.direct.Get(dst)
}

// DirectEntries calls fn for every stored direct entry, in unspecified
// order (the introspection hook the property tests use).
func (t *Table) DirectEntries(fn func(dst graph.NodeID, port graph.PortID)) { t.direct.Range(fn) }

// Config is the scheme's construction settings, of which there are
// none: the center sample is always ceil(sqrt(n ln n)) nodes. The type
// stays because the repo benchmark's layer timing names it; ROADMAP
// item 3's benchmark revision can drop it.
type Config struct{}

// Scheme is the built stretch-3 name-dependent roundtrip routing scheme.
type Scheme struct {
	Centers []graph.NodeID
	Tables  []*Table
	Labels  []Label

	g *graph.Graph
}

// Pass shapes the construction passes of one build and of every repair
// after it: how many workers run them, and what else wants each node's
// two distance rows while they are hot.
type Pass struct {
	// Workers is the pool size (0 = GOMAXPROCS, 1 = sequential). Output
	// is identical either way: per-destination results are merged
	// serially in node order.
	Workers int
	// Visit, when non-nil, is handed every solved destination y with the
	// two rows anchored at it — fromY = d(y, ·), toY = d(·, y), read-only
	// — just before C(y) is solved from them, so whatever else sorts on
	// those rows (the Init_y order of the layer above) shares the one
	// forward and one reverse search the cluster pays for, whatever the
	// lazy oracle's row budget. Calls for distinct y run concurrently.
	Visit func(y graph.NodeID, fromY, toY []graph.Dist)
}

// New builds the scheme over g with distance oracle m on every core.
// Construction is row-oriented: every oracle access is anchored at one
// node at a time, so a bounded lazy oracle serves it without
// materializing n^2 distances.
func New(g *graph.Graph, m graph.DistanceOracle, rng *rand.Rand, cfg Config) (*Scheme, error) {
	return NewWith(g, m, rng, cfg, Pass{})
}

// NewWith is New under an explicit Pass.
func NewWith(g *graph.Graph, m graph.DistanceOracle, rng *rand.Rand, cfg Config, pass Pass) (*Scheme, error) {
	mt, err := NewMaintained(g, m, rng, cfg, pass)
	if err != nil {
		return nil, err
	}
	return mt.s, nil
}

// AssembleScheme rebuilds a substrate from per-node state alone — the
// deployment/wire reassembly path. Tables and labels must be indexed by
// node; Centers is left empty (it is construction bookkeeping, not
// routing state).
func AssembleScheme(g *graph.Graph, tables []*Table, labels []Label) (*Scheme, error) {
	if len(tables) != g.N() || len(labels) != g.N() {
		return nil, fmt.Errorf("rtz: assembling over %d nodes needs %d tables and labels, got %d/%d",
			g.N(), g.N(), len(tables), len(labels))
	}
	return &Scheme{Tables: tables, Labels: labels, g: g}, nil
}

// LabelOf returns R3(v).
func (s *Scheme) LabelOf(v graph.NodeID) Label { return s.Labels[v] }

// Graph returns the network the scheme was built over (read-only for
// forwarding; plane compilation needs it to resolve ports).
func (s *Scheme) Graph() *graph.Graph { return s.g }

// Forward is the local forwarding function: given only the node's table
// and the packet header it returns the outgoing port (mutating the
// header's phase), or delivered = true. It never consults global state.
func Forward(tab *Table, h *Header) (port graph.PortID, delivered bool, err error) {
	if tab.Self == h.Dest {
		return 0, true, nil
	}
	// A direct entry is always safe and optimal from here on: the cluster
	// is closed under shortest-path subpaths.
	if h.Phase == PhaseDirect {
		p, ok := tab.DirectPort(h.Dest)
		if !ok {
			return 0, false, fmt.Errorf("rtz: direct-phase packet for %d at %d with no entry (cluster closure violated)", h.Dest, tab.Self)
		}
		return p, false, nil
	}
	if p, ok := tab.DirectPort(h.Dest); ok {
		h.Phase = PhaseDirect
		return p, false, nil
	}
	if h.Phase == PhaseSeek {
		if tab.Self == h.Label.Center {
			h.Phase = PhaseDescend
		} else {
			return tab.InPorts[h.Label.CenterIdx], false, nil
		}
	}
	// Descend the center's out-tree toward the destination.
	st := tab.TreeStates[h.Label.CenterIdx]
	p, done, err := tree.NextPort(st, h.Label.TreeLabel)
	if err != nil {
		return 0, false, fmt.Errorf("rtz: descent at %d toward %d: %w", tab.Self, h.Dest, err)
	}
	if done {
		// The tree label addresses this node, so it must be the
		// destination — guarded above, defensive here.
		return 0, true, nil
	}
	return p, false, nil
}

// Route simulates the one-way route from src to the node addressed by
// lbl, returning the path weight and hop count. It drives Forward with
// node-local tables only; the graph is used solely to resolve ports, as
// the network fabric would.
func (s *Scheme) Route(src graph.NodeID, lbl Label) (graph.Dist, int, error) {
	h := &Header{Dest: lbl.Node, Label: lbl, Phase: PhaseSeek}
	cur := src
	var weight graph.Dist
	hops := 0
	maxHops := 4 * s.g.N()
	for {
		port, delivered, err := Forward(s.Tables[cur], h)
		if err != nil {
			return 0, 0, err
		}
		if delivered {
			return weight, hops, nil
		}
		e, ok := s.g.EdgeByPort(cur, port)
		if !ok {
			return 0, 0, fmt.Errorf("rtz: node %d has no port %d", cur, port)
		}
		weight += e.Weight
		cur = e.To
		if hops++; hops > maxHops {
			return 0, 0, fmt.Errorf("rtz: route %d->%d exceeded %d hops", src, lbl.Node, maxHops)
		}
	}
}

// MaxTableWords returns the largest node table in words.
func (s *Scheme) MaxTableWords() int {
	m := 0
	for _, t := range s.Tables {
		if w := t.Words(); w > m {
			m = w
		}
	}
	return m
}

// AvgTableWords returns the mean node table size in words.
func (s *Scheme) AvgTableWords() float64 {
	total := 0
	for _, t := range s.Tables {
		total += t.Words()
	}
	return float64(total) / float64(len(s.Tables))
}

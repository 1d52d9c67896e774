package core

import (
	"cmp"
	"fmt"
	"slices"

	"rtroute/internal/codec"
	"rtroute/internal/cover"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/rtz"
	"rtroute/internal/sim"
	"rtroute/internal/tree"
)

// This file adapts the two name-dependent substrates (the RTZ stretch-3
// scheme and the Lemma 5 double-tree-cover "Hop" scheme) to the full
// Scheme contract, with exported header types so the wire codec can
// encode their packets, and with injection state that is strictly
// per-node — the property the section codec and Deploy rely on. They mirror the adapters in internal/traffic (which predate them
// and remain for the engine's own tests) hop for hop: route identity
// between the two is locked by the deployment tests.

// RTZHeader carries one roundtrip over the stretch-3 substrate: the live
// leg plus the source's address R3(s) resolved at injection, so the
// return leg routes with node-local state only (§1.1.1's reply rule).
type RTZHeader struct {
	SrcName, DstName int32
	SrcLabel         rtz.Label
	Leg              rtz.Header
}

// Words implements sim.Header.
func (h *RTZHeader) Words() int { return 2 + h.SrcLabel.Words() + h.Leg.Words() }

// FixedWords implements sim.FixedSizeHeader: forwarding mutates only the
// leg's phase, so the size is leg-invariant.
func (h *RTZHeader) FixedWords() bool { return true }

// RTZPlane is the stretch-3 substrate as a servable Scheme: node-local
// forwarding over the substrate tables, with destination addresses
// resolved out of band at injection time (the name-dependent model's
// assumption).
type RTZPlane struct {
	sub  *rtz.Scheme
	perm *names.Permutation
}

var _ Scheme = (*RTZPlane)(nil)
var _ sim.Header = (*RTZHeader)(nil)

// NewRTZPlane wraps a built substrate with a naming.
func NewRTZPlane(sub *rtz.Scheme, perm *names.Permutation) (*RTZPlane, error) {
	if perm.N() != sub.Graph().N() {
		return nil, fmt.Errorf("core: naming covers %d nodes, substrate has %d", perm.N(), sub.Graph().N())
	}
	return &RTZPlane{sub: sub, perm: perm}, nil
}

// Substrate returns the wrapped stretch-3 scheme.
func (p *RTZPlane) Substrate() *rtz.Scheme { return p.sub }

// Naming returns the plane's name permutation.
func (p *RTZPlane) Naming() *names.Permutation { return p.perm }

// SchemeName implements Scheme.
func (p *RTZPlane) SchemeName() string { return "rtz-stretch3" }

// NewHeader implements sim.Plane.
func (p *RTZPlane) NewHeader(srcName, dstName int32) (sim.Header, error) {
	h := &RTZHeader{}
	if err := p.arm(h, srcName, dstName); err != nil {
		return nil, err
	}
	return h, nil
}

// ResetHeader implements sim.Plane.
func (p *RTZPlane) ResetHeader(h sim.Header, srcName, dstName int32) error {
	hh, ok := h.(*RTZHeader)
	if !ok {
		return fmt.Errorf("core: rtz plane got %T header", h)
	}
	return p.arm(hh, srcName, dstName)
}

func (p *RTZPlane) arm(h *RTZHeader, srcName, dstName int32) error {
	if err := checkPlaneName(p.perm, srcName); err != nil {
		return err
	}
	if err := checkPlaneName(p.perm, dstName); err != nil {
		return err
	}
	src := graph.NodeID(p.perm.Node(srcName))
	dst := graph.NodeID(p.perm.Node(dstName))
	h.SrcName, h.DstName = srcName, dstName
	h.SrcLabel = p.sub.LabelOf(src)
	h.Leg = rtz.Header{Dest: dst, Label: p.sub.LabelOf(dst), Phase: rtz.PhaseSeek}
	return nil
}

// BeginReturn implements sim.Plane.
func (p *RTZPlane) BeginReturn(h sim.Header) error {
	hh, ok := h.(*RTZHeader)
	if !ok {
		return fmt.Errorf("core: rtz plane got %T header", h)
	}
	hh.Leg = rtz.Header{Dest: hh.SrcLabel.Node, Label: hh.SrcLabel, Phase: rtz.PhaseSeek}
	return nil
}

// Forward implements sim.Forwarder: pure delegation to the substrate's
// node-local forwarding function.
func (p *RTZPlane) Forward(at graph.NodeID, h sim.Header) (graph.PortID, bool, error) {
	hh, ok := h.(*RTZHeader)
	if !ok {
		return 0, false, fmt.Errorf("core: rtz plane got %T header", h)
	}
	return rtz.Forward(p.sub.Tables[at], &hh.Leg)
}

// NodeOf implements sim.Plane.
func (p *RTZPlane) NodeOf(name int32) graph.NodeID { return graph.NodeID(p.perm.Node(name)) }

// Graph implements sim.Plane.
func (p *RTZPlane) Graph() *graph.Graph { return p.sub.Graph() }

// Roundtrip implements Scheme.
func (p *RTZPlane) Roundtrip(srcName, dstName int32) (*sim.RoundtripTrace, error) {
	return sim.Roundtrip(p, srcName, dstName, 0)
}

// MaxTableWords implements Scheme.
func (p *RTZPlane) MaxTableWords() int { return p.sub.MaxTableWords() }

// AvgTableWords implements Scheme.
func (p *RTZPlane) AvgTableWords() float64 { return p.sub.AvgTableWords() }

// HopMember is one double-tree membership of a node: the O(1) routing
// entry plus the node's own address and root distances in that tree —
// everything injection needs, all of it chargeable to this node alone.
type HopMember struct {
	Ref      cover.TreeRef
	State    tree.State
	InPort   graph.PortID
	IsRoot   bool
	OwnLabel tree.Label
	DistTo   graph.Dist // d_C(v, root) within the tree's cluster
	DistFrom graph.Dist // d_C(root, v)
}

// HopHeader carries one roundtrip over the hop substrate: the handshake
// R2(s,t) resolved at injection, and the live leg within its tree.
type HopHeader struct {
	HS  rtz.Handshake
	Leg rtz.HopHeader
}

// Words implements sim.Header.
func (h *HopHeader) Words() int { return h.HS.Words() + h.Leg.Words() }

// FixedWords implements sim.FixedSizeHeader.
func (h *HopHeader) FixedWords() bool { return true }

// HopPlane is the Lemma 5 substrate as a servable Scheme. Unlike the
// monolithic rtz.HopScheme — whose R2 consults the global cover
// hierarchy — a HopPlane resolves handshakes from the two endpoints'
// per-node membership lists alone, which is what makes it decomposable:
// R2(u,v) is the shared tree minimizing the roundtrip through the root,
// exactly Hierarchy.BestTree's rule, computed by intersecting u's and
// v's membership lists (both sorted by (level, index)).
type HopPlane struct {
	g       *graph.Graph
	perm    *names.Permutation
	tables  []*rtz.HopTable
	members [][]HopMember
	memIdx  []map[cover.TreeRef]int32
}

var _ Scheme = (*HopPlane)(nil)
var _ sim.Header = (*HopHeader)(nil)

// NewHopPlane extracts the per-node membership lists from a built hop
// substrate and wraps them with a naming.
func NewHopPlane(hop *rtz.HopScheme, perm *names.Permutation) (*HopPlane, error) {
	g := hop.Graph()
	n := g.N()
	if perm.N() != n {
		return nil, fmt.Errorf("core: naming covers %d nodes, substrate has %d", perm.N(), n)
	}
	members := make([][]HopMember, n)
	for v := 0; v < n; v++ {
		refs := hop.Hierarchy.Memberships(graph.NodeID(v))
		ms := make([]HopMember, 0, len(refs))
		for _, ref := range refs {
			t := hop.Hierarchy.Tree(ref)
			e, ok := hop.Tables[v].Trees[ref]
			if !ok {
				return nil, fmt.Errorf("core: hop table of %d lacks membership %v", v, ref)
			}
			lbl, ok1 := t.LabelOf(graph.NodeID(v))
			dt, ok2 := t.DistTo(graph.NodeID(v))
			df, ok3 := t.DistFrom(graph.NodeID(v))
			if !ok1 || !ok2 || !ok3 {
				return nil, fmt.Errorf("core: tree %v lacks label/distances for %d", ref, v)
			}
			ms = append(ms, HopMember{
				Ref: ref, State: e.State, InPort: e.InPort, IsRoot: e.IsRoot,
				OwnLabel: lbl, DistTo: dt, DistFrom: df,
			})
		}
		members[v] = ms
	}
	return AssembleHopPlane(g, perm, hop.Tables, members)
}

// AssembleHopPlane builds a hop plane directly from per-node state — the
// restore path. members[v] must be in the hierarchy's
// membership order (sorted by (level, index)) for handshake tie-breaking
// to match the monolithic substrate.
func AssembleHopPlane(g *graph.Graph, perm *names.Permutation, tables []*rtz.HopTable, members [][]HopMember) (*HopPlane, error) {
	n := g.N()
	if perm.N() != n || len(tables) != n || len(members) != n {
		return nil, fmt.Errorf("core: hop plane needs %d nodes of state, got %d tables / %d member lists / %d names",
			n, len(tables), len(members), perm.N())
	}
	idx := make([]map[cover.TreeRef]int32, n)
	for v := 0; v < n; v++ {
		m := make(map[cover.TreeRef]int32, len(members[v]))
		for i, mem := range members[v] {
			m[mem.Ref] = int32(i)
		}
		idx[v] = m
	}
	return &HopPlane{g: g, perm: perm, tables: tables, members: members, memIdx: idx}, nil
}

// Members returns v's membership list; callers must not modify it.
func (p *HopPlane) Members(v graph.NodeID) []HopMember { return p.members[v] }

// Tables returns the per-node hop tables; callers must not modify them.
func (p *HopPlane) Tables() []*rtz.HopTable { return p.tables }

// Naming returns the plane's name permutation.
func (p *HopPlane) Naming() *names.Permutation { return p.perm }

// R2 resolves the handshake for (u,v) from the endpoints' membership
// lists: the shared tree minimizing the roundtrip through the root, ties
// broken toward the lower (level, index) — Hierarchy.BestTree's rule.
func (p *HopPlane) R2(u, v graph.NodeID) (rtz.Handshake, graph.Dist, error) {
	var (
		best    graph.Dist = graph.Inf
		bestU   *HopMember
		bestV   *HopMember
		bestRef cover.TreeRef
	)
	vIdx := p.memIdx[v]
	for i := range p.members[u] {
		mu := &p.members[u][i]
		j, ok := vIdx[mu.Ref]
		if !ok {
			continue
		}
		mv := &p.members[v][j]
		cost := mu.DistTo + mu.DistFrom + mv.DistTo + mv.DistFrom
		if cost < best || (cost == best && bestU != nil && refCompare(mu.Ref, bestRef) < 0) {
			best, bestU, bestV, bestRef = cost, mu, mv, mu.Ref
		}
	}
	if bestU == nil {
		return rtz.Handshake{}, 0, fmt.Errorf("core: no shared double-tree for (%d,%d)", u, v)
	}
	return rtz.Handshake{Ref: bestU.Ref, ULabel: bestU.OwnLabel, VLabel: bestV.OwnLabel}, best, nil
}

// SchemeName implements Scheme.
func (p *HopPlane) SchemeName() string { return "hop-substrate" }

// NewHeader implements sim.Plane.
func (p *HopPlane) NewHeader(srcName, dstName int32) (sim.Header, error) {
	h := &HopHeader{}
	if err := p.arm(h, srcName, dstName); err != nil {
		return nil, err
	}
	return h, nil
}

// ResetHeader implements sim.Plane.
func (p *HopPlane) ResetHeader(h sim.Header, srcName, dstName int32) error {
	hh, ok := h.(*HopHeader)
	if !ok {
		return fmt.Errorf("core: hop plane got %T header", h)
	}
	return p.arm(hh, srcName, dstName)
}

func (p *HopPlane) arm(h *HopHeader, srcName, dstName int32) error {
	if err := checkPlaneName(p.perm, srcName); err != nil {
		return err
	}
	if err := checkPlaneName(p.perm, dstName); err != nil {
		return err
	}
	u := graph.NodeID(p.perm.Node(srcName))
	v := graph.NodeID(p.perm.Node(dstName))
	hs, _, err := p.R2(u, v)
	if err != nil {
		return fmt.Errorf("core: handshake (%d,%d): %w", srcName, dstName, err)
	}
	h.HS = hs
	h.Leg = rtz.HopHeader{Ref: hs.Ref, Target: hs.VLabel}
	return nil
}

// BeginReturn implements sim.Plane.
func (p *HopPlane) BeginReturn(h sim.Header) error {
	hh, ok := h.(*HopHeader)
	if !ok {
		return fmt.Errorf("core: hop plane got %T header", h)
	}
	hh.Leg = rtz.HopHeader{Ref: hh.HS.Ref, Target: hh.HS.ULabel}
	return nil
}

// Forward implements sim.Forwarder.
func (p *HopPlane) Forward(at graph.NodeID, h sim.Header) (graph.PortID, bool, error) {
	hh, ok := h.(*HopHeader)
	if !ok {
		return 0, false, fmt.Errorf("core: hop plane got %T header", h)
	}
	return rtz.ForwardHop(p.tables[at], &hh.Leg)
}

// NodeOf implements sim.Plane.
func (p *HopPlane) NodeOf(name int32) graph.NodeID { return graph.NodeID(p.perm.Node(name)) }

// Graph implements sim.Plane.
func (p *HopPlane) Graph() *graph.Graph { return p.g }

// Roundtrip implements Scheme.
func (p *HopPlane) Roundtrip(srcName, dstName int32) (*sim.RoundtripTrace, error) {
	return sim.Roundtrip(p, srcName, dstName, 0)
}

// MaxTableWords implements Scheme.
func (p *HopPlane) MaxTableWords() int {
	m := 0
	for _, t := range p.tables {
		if w := t.Words(); w > m {
			m = w
		}
	}
	return m
}

// AvgTableWords implements Scheme.
func (p *HopPlane) AvgTableWords() float64 {
	total := 0
	for _, t := range p.tables {
		total += t.Words()
	}
	return float64(total) / float64(len(p.tables))
}

// refCompare orders tree references by (level, index).
func refCompare(a, b cover.TreeRef) int {
	return cmp.Or(cmp.Compare(a.Level, b.Level), cmp.Compare(a.Index, b.Index))
}

func checkPlaneName(perm *names.Permutation, name int32) error {
	if name < 0 || int(name) >= perm.N() {
		return fmt.Errorf("core: name %d outside [0,%d)", name, perm.N())
	}
	return nil
}

// rtzDirect is one direct (cluster) entry of a stretch-3 table.
type rtzDirect struct {
	dst  graph.NodeID
	port graph.PortID
}

// encodeRTZTable appends a stretch-3 table: its per-center in-ports and
// tree states, then its direct entries ascending by destination.
func encodeRTZTable(e *codec.Encoder, t *rtz.Table) {
	e.U(uint64(len(t.InPorts)))
	for _, p := range t.InPorts {
		e.I(int64(p))
	}
	for _, s := range t.TreeStates {
		e.TreeState(s)
	}
	var direct []rtzDirect
	t.DirectEntries(func(dst graph.NodeID, port graph.PortID) { direct = append(direct, rtzDirect{dst, port}) })
	slices.SortFunc(direct, func(a, b rtzDirect) int { return cmp.Compare(a.dst, b.dst) })
	e.U(uint64(len(direct)))
	for _, dd := range direct {
		e.I(int64(dd.dst))
		e.I(int64(dd.port))
	}
}

// decodeRTZTable reads node self's stretch-3 table. centers >= 0 is the
// center count every table must cover (the first node's).
func decodeRTZTable(d *codec.Decoder, self graph.NodeID, centers int) (*rtz.Table, error) {
	nc, err := d.Count(4) // 1 byte port + >= 3 bytes state
	if err != nil {
		return nil, err
	}
	if centers >= 0 && nc != centers {
		return nil, fmt.Errorf("covers %d centers, want %d", nc, centers)
	}
	t := &rtz.Table{Self: self}
	if nc > 0 {
		t.InPorts, t.TreeStates = make([]graph.PortID, nc), make([]tree.State, nc)
		for i := range t.InPorts {
			if t.InPorts[i], err = d.I32(); err != nil {
				return nil, err
			}
		}
		for i := range t.TreeStates {
			if t.TreeStates[i], err = d.TreeState(); err != nil {
				return nil, err
			}
		}
	}
	nd, err := d.Count(2)
	if err != nil {
		return nil, err
	}
	direct := make([]rtzDirect, nd)
	for i := range direct {
		if direct[i].dst, err = d.I32(); err != nil {
			return nil, err
		}
		if direct[i].port, err = d.I32(); err != nil {
			return nil, err
		}
	}
	dst := func(i int) graph.NodeID { return direct[i].dst }
	if !ascending(nd, dst) {
		return nil, fmt.Errorf("direct entries not strictly ascending")
	}
	t.CompileDirect(nd, dst, func(i int) graph.PortID { return direct[i].port })
	return t, nil
}

// encodeSection appends node v's section: its own address, then its
// stretch-3 table.
func (p *RTZPlane) encodeSection(e *codec.Encoder, v graph.NodeID) {
	e.RTZLabel(p.sub.Labels[v])
	encodeRTZTable(e, p.sub.Tables[v])
}

// restoreRTZ decodes stretch-3 sections; the plane gathers the nodes'
// own addresses into the injection directory.
func restoreRTZ(st *SchemeState, perm *names.Permutation) restorer {
	n := st.Graph.N()
	tables, labels := make([]*rtz.Table, n), make([]rtz.Label, n)
	centers := -1
	node := func(v graph.NodeID, d *codec.Decoder) (err error) {
		if labels[v], err = d.RTZLabel(); err != nil {
			return err
		}
		if tables[v], err = decodeRTZTable(d, v, centers); err != nil {
			return err
		}
		centers = len(tables[v].InPorts)
		return nil
	}
	return restorer{node: node, finish: func() (Scheme, error) {
		sub, err := rtz.AssembleScheme(st.Graph, tables, labels)
		if err != nil {
			return nil, err
		}
		return NewRTZPlane(sub, perm)
	}}
}

// encodeSection appends node v's section: its memberships in (level,
// index) order, each with its tree state, in-port, root flag, own
// address and root distances.
func (p *HopPlane) encodeSection(e *codec.Encoder, v graph.NodeID) {
	e.U(uint64(len(p.members[v])))
	for _, m := range p.members[v] {
		e.TreeRef(m.Ref)
		e.TreeState(m.State)
		e.I(int64(m.InPort))
		e.B(m.IsRoot)
		e.TreeLabel(m.OwnLabel)
		e.I(int64(m.DistTo))
		e.I(int64(m.DistFrom))
	}
}

// restoreHop decodes hop sections. Memberships must arrive in (level,
// index) order: R2 relies on the monolithic membership order for
// handshake tie-breaking.
func restoreHop(st *SchemeState, perm *names.Permutation) restorer {
	n := st.Graph.N()
	tables, members := make([]*rtz.HopTable, n), make([][]HopMember, n)
	node := func(v graph.NodeID, d *codec.Decoder) error {
		nm, err := d.Count(11)
		if err != nil {
			return err
		}
		ms := make([]HopMember, nm)
		t := &rtz.HopTable{Self: v, Trees: make(map[cover.TreeRef]rtz.HopEntry, nm)}
		for i := range ms {
			m := &ms[i]
			if m.Ref, err = d.TreeRef(); err != nil {
				return err
			}
			if m.State, err = d.TreeState(); err != nil {
				return err
			}
			if m.InPort, err = d.I32(); err != nil {
				return err
			}
			if m.IsRoot, err = d.B(); err != nil {
				return err
			}
			if m.OwnLabel, err = d.TreeLabel(); err != nil {
				return err
			}
			dt, err := d.I()
			if err != nil {
				return err
			}
			df, err := d.I()
			if err != nil {
				return err
			}
			if dt < 0 || df < 0 || dt >= graph.Inf || df >= graph.Inf {
				return d.Fail("tree distance outside [0, Inf)")
			}
			m.DistTo, m.DistFrom = graph.Dist(dt), graph.Dist(df)
			if i > 0 && refCompare(ms[i-1].Ref, m.Ref) >= 0 {
				return fmt.Errorf("membership list not sorted by (level, index)")
			}
			t.Trees[m.Ref] = rtz.HopEntry{State: m.State, InPort: m.InPort, IsRoot: m.IsRoot}
		}
		tables[v], members[v] = t, ms
		return nil
	}
	return restorer{node: node, finish: func() (Scheme, error) { return AssembleHopPlane(st.Graph, perm, tables, members) }}
}

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
// per-node — the property the section codec and Deploy rely on.

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

// hopMember is what a hop-plane node holds beside its routing entry in
// one tree: its own address and root distances there — everything
// injection needs, all of it chargeable to this node alone.
type hopMember struct {
	own              tree.Label
	distTo, distFrom graph.Dist // d_C(v, root) and d_C(root, v) within the tree's cluster
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

// HopPlane is the Lemma 5 substrate as a servable Scheme. It resolves
// handshakes from the two endpoints' per-node membership tables alone,
// never from the global cover hierarchy, which is what makes it
// decomposable: R2(u,v) is the shared tree minimizing the roundtrip
// through the root, exactly cover.TreeSearch's rule, found by walking
// u's and v's tables (both in (level, index) order) in step.
type HopPlane struct {
	g      *graph.Graph
	perm   *names.Permutation
	tables []rtz.HopTable
	// members[v][i] is v's address and root distances in the tree of
	// tables[v].Trees[i].
	members [][]hopMember
}

var _ Scheme = (*HopPlane)(nil)
var _ sim.Header = (*HopHeader)(nil)

// NewHopPlane serves the hop substrate of a cover hierarchy of g: each
// node's table is its memberships, shared with the hierarchy, beside
// which the plane keeps the node's address and root distances per tree.
func NewHopPlane(g *graph.Graph, h *cover.Hierarchy, perm *names.Permutation) (*HopPlane, error) {
	n := g.N()
	if h.N() != n {
		return nil, fmt.Errorf("core: hierarchy over %d nodes cannot serve a %d-node graph", h.N(), n)
	}
	if perm.N() != n {
		return nil, fmt.Errorf("core: naming covers %d nodes, substrate has %d", perm.N(), n)
	}
	tables, members := make([]rtz.HopTable, n), make([][]hopMember, n)
	for v := 0; v < n; v++ {
		tables[v] = rtz.HopTable{Self: graph.NodeID(v), Trees: h.Memberships(graph.NodeID(v))}
		ms := make([]hopMember, len(tables[v].Trees))
		for i, e := range tables[v].Trees {
			t := h.Tree(e.Ref)
			lbl, ok1 := t.LabelOf(graph.NodeID(v))
			dt, ok2 := t.DistTo(graph.NodeID(v))
			df, ok3 := t.DistFrom(graph.NodeID(v))
			if !ok1 || !ok2 || !ok3 {
				return nil, fmt.Errorf("core: tree %v lacks label/distances for %d", e.Ref, v)
			}
			ms[i] = hopMember{own: lbl, distTo: dt, distFrom: df}
		}
		members[v] = ms
	}
	return &HopPlane{g: g, perm: perm, tables: tables, members: members}, nil
}

// Naming returns the plane's name permutation.
func (p *HopPlane) Naming() *names.Permutation { return p.perm }

// HopTable returns node v's membership table.
func (p *HopPlane) HopTable(v graph.NodeID) *rtz.HopTable { return &p.tables[v] }

// R2 resolves the handshake for (u,v) from the endpoints' membership
// tables: the shared tree minimizing the roundtrip through the root,
// ties broken toward the lower (level, index) — cover.TreeSearch's
// rule, which the walk in (level, index) order keeps by taking only a
// strictly cheaper tree.
func (p *HopPlane) R2(u, v graph.NodeID) (rtz.Handshake, graph.Dist, error) {
	tu, tv := p.tables[u].Trees, p.tables[v].Trees
	best, bu, bv := graph.Dist(graph.Inf), -1, -1
	for i, j := 0, 0; i < len(tu) && j < len(tv); {
		switch c := tu[i].Ref.Compare(tv[j].Ref); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			mu, mv := &p.members[u][i], &p.members[v][j]
			if cost := mu.distTo + mu.distFrom + mv.distTo + mv.distFrom; cost < best {
				best, bu, bv = cost, i, j
			}
			i, j = i+1, j+1
		}
	}
	if bu < 0 {
		return rtz.Handshake{}, 0, fmt.Errorf("core: no shared double-tree for (%d,%d)", u, v)
	}
	return rtz.Handshake{Ref: tu[bu].Ref, ULabel: p.members[u][bu].own, VLabel: p.members[v][bv].own}, best, nil
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
	return rtz.ForwardHop(&p.tables[at], &hh.Leg)
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

// encodeHopTable appends a node's memberships in (level, index) order:
// per tree its reference, tree state, in-port and root flag, then what
// suffix(i), when set, appends for membership i. It is the one layout of
// a membership for every kind that holds a hop table.
func encodeHopTable(e *codec.Encoder, t *rtz.HopTable, suffix func(i int)) {
	e.U(uint64(len(t.Trees)))
	for i, m := range t.Trees {
		e.TreeRef(m.Ref)
		e.TreeState(m.State)
		e.I(int64(m.InPort))
		e.B(m.IsRoot)
		if suffix != nil {
			suffix(i)
		}
	}
}

// decodeHopTable reads node self's memberships as encodeHopTable wrote
// them, each at least minBytes long, calling suffix(i, count), when set,
// after membership i's shared fields. Memberships must arrive in strict
// (level, index) order, the order of a built table: R2's tie rule walks
// the tables in that order.
func decodeHopTable(d *codec.Decoder, self graph.NodeID, minBytes int, suffix func(i, count int) error) (rtz.HopTable, error) {
	nm, err := d.Count(minBytes)
	if err != nil {
		return rtz.HopTable{}, err
	}
	t := rtz.HopTable{Self: self, Trees: make([]cover.Membership, nm)}
	for i := range t.Trees {
		m := &t.Trees[i]
		if m.Ref, err = d.TreeRef(); err != nil {
			return rtz.HopTable{}, err
		}
		if m.State, err = d.TreeState(); err != nil {
			return rtz.HopTable{}, err
		}
		if m.InPort, err = d.I32(); err != nil {
			return rtz.HopTable{}, err
		}
		if m.IsRoot, err = d.B(); err != nil {
			return rtz.HopTable{}, err
		}
		if suffix != nil {
			if err := suffix(i, nm); err != nil {
				return rtz.HopTable{}, err
			}
		}
		if i > 0 && t.Trees[i-1].Ref.Compare(m.Ref) >= 0 {
			return rtz.HopTable{}, fmt.Errorf("membership list not sorted by (level, index)")
		}
	}
	return t, nil
}

// encodeSection appends node v's section: its memberships, each with its
// own address and root distances.
func (p *HopPlane) encodeSection(e *codec.Encoder, v graph.NodeID) {
	encodeHopTable(e, &p.tables[v], func(i int) {
		m := &p.members[v][i]
		e.TreeLabel(m.own)
		e.I(int64(m.distTo))
		e.I(int64(m.distFrom))
	})
}

// restoreHop decodes hop sections.
func restoreHop(st *SchemeState, perm *names.Permutation) restorer {
	n := st.Graph.N()
	p := &HopPlane{g: st.Graph, perm: perm, tables: make([]rtz.HopTable, n), members: make([][]hopMember, n)}
	node := func(v graph.NodeID, d *codec.Decoder) (err error) {
		var ms []hopMember
		p.tables[v], err = decodeHopTable(d, v, 11, func(i, count int) (err error) {
			if i == 0 {
				ms = make([]hopMember, count)
			}
			m := &ms[i]
			if m.own, err = d.TreeLabel(); err != nil {
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
			m.distTo, m.distFrom = graph.Dist(dt), graph.Dist(df)
			return nil
		})
		p.members[v] = ms
		return err
	}
	return restorer{node: node, finish: func() (Scheme, error) { return p, nil }}
}

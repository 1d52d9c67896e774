package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"rtroute/internal/blocks"
	"rtroute/internal/codec"
	"rtroute/internal/cover"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/parallel"
	"rtroute/internal/rtmetric"
	"rtroute/internal/rtz"
	"rtroute/internal/sim"
	"rtroute/internal/tree"
)

// PolynomialStretch is the §4 scheme (Figs. 9 and 11): the polynomial
// stretch/space tradeoff built on the Theorem 13 double-tree cover
// hierarchy. Routing searches the source's home double-tree at
// exponentially increasing scales; within a tree the packet prefix-
// matches the destination name through a series of waypoints, always
// relaying through the tree's center; failure (a missing dictionary
// entry) sends it back to the source, which escalates one level.
//
// Per-node storage (§4.1), for every level and every double-tree C the
// node belongs to: its O(1) tree-routing state, its own label
// TreeR(C,u), the first link toward the center, and for every
// (j < k, τ ∈ Σ) the label of the nearest node in C matching u's own
// name on the first j digits and continuing with τ.
type PolynomialStretch struct {
	g    *graph.Graph
	perm *names.Permutation
	hier *cover.Hierarchy // nil on a restored Deployment; forwarding never consults it
	uni  blocks.Universe
	k    int
	// levels is the length of the scale ladder, kept as a plain count so
	// that escalation works from per-node state alone (the hierarchy
	// itself is not part of any node's local routing state).
	levels int

	nodes []*polyTable
}

// polyDictEntry is dictionary slot (j, τ) of one tree under its packed
// key j·q + τ: the name and label of the member it names.
type polyDictEntry struct {
	key   int32
	name  int32
	label tree.Label
}

// polyTree is what a node holds beside its routing entry in one tree:
// its own label and its dictionary, ascending by key.
type polyTree struct {
	own  tree.Label
	dict []polyDictEntry
}

type polyTable struct {
	selfName int32
	hop      rtz.HopTable
	trees    []polyTree // trees[i] belongs to hop.Trees[i]
	home     []int32    // per level, the position of the home tree in hop.Trees
}

func (t *polyTable) words() int {
	w := 1 + 2*len(t.home)
	for _, e := range t.trees {
		w += 6 + e.own.Words()
		for _, d := range e.dict {
			w += 3 + d.label.Words()
		}
	}
	return w
}

// homeTree arms h's leg in the node's home tree at h.Level, with the
// node's label there as the source label.
func (t *polyTable) homeTree(h *PolyHeader) {
	i := t.home[h.Level]
	h.Leg = rtz.HopHeader{Ref: t.hop.Trees[i].Ref}
	h.SourceLabel = t.trees[i].own
}

// PolyHeader is the packet header of Fig. 11.
type PolyHeader struct {
	Mode             Mode
	DestName         int32
	SrcName          int32
	Level            int32
	Found            bool
	SourceLabel      tree.Label
	NextWaypointName int32
	// Leg is the live leg in the current tree: toward the next
	// waypoint's label, or home to the source's.
	Leg rtz.HopHeader
}

// Words implements sim.Header.
func (h *PolyHeader) Words() int {
	return 5 + h.SourceLabel.Words() + h.Leg.Words()
}

var _ sim.Header = (*PolyHeader)(nil)
var _ sim.Forwarder = (*PolynomialStretch)(nil)
var _ Scheme = (*PolynomialStretch)(nil)

// PolyConfig tunes construction.
type PolyConfig struct {
	// K is the tradeoff parameter (both the cover parameter and the
	// name word length); >= 2.
	K int
	// ScaleBase is the level ladder ratio (the paper uses 2).
	ScaleBase float64
	// Variant selects the cover construction (default Awerbuch–Peleg;
	// the §4.4 discussion explains why ball-growing weakens the scheme).
	Variant cover.Variant
	// BuildWorkers parallelizes per-node table construction
	// (0 = GOMAXPROCS, 1 = sequential). Output is identical either way.
	BuildWorkers int
	// Hierarchy, when set, is the cover hierarchy to build on: what
	// cover.BuildHierarchy returns over the same graph and oracle for
	// (K, ScaleBase, Variant). nil builds one.
	Hierarchy *cover.Hierarchy
}

// hierarchyFor returns h after checking it was built over g for k and
// base, or builds the hierarchy when h is nil. The variant is not
// recorded in a hierarchy, so the caller vouches for it.
func hierarchyFor(h *cover.Hierarchy, g *graph.Graph, m graph.DistanceOracle, k int, base float64, variant cover.Variant) (*cover.Hierarchy, error) {
	if h == nil {
		return cover.BuildHierarchy(g, m, k, base, variant)
	}
	if h.N() != g.N() || h.K != k || h.Base != base {
		return nil, fmt.Errorf("hierarchy over %d nodes for k %d, base %g; want %d, %d, %g", h.N(), h.K, h.Base, g.N(), k, base)
	}
	return h, nil
}

// NewPolynomialStretch builds the scheme. m may be any distance oracle.
//
// Construction costs what it writes. After the hierarchy and the Init
// orders, node u's table is one pass per double-tree it belongs to, over
// that tree's members: §4.2 defines dictionary slot (j, τ) as the
// nearest member matching u's name on j digits and continuing with τ,
// so each member offers itself to the at most K slots its name can fill
// and the first match in Init_u order — the lowest rank, ranks being
// distinct — wins the slot. No slot is ever searched for. Nodes are
// built on BuildWorkers cores from read-only shared state; the tables
// do not depend on the worker count.
func NewPolynomialStretch(g *graph.Graph, m graph.DistanceOracle, perm *names.Permutation, cfg PolyConfig) (*PolynomialStretch, error) {
	n := g.N()
	if cfg.K < 2 {
		return nil, fmt.Errorf("core: polynomial stretch needs K >= 2, got %d", cfg.K)
	}
	if n < 2 {
		return nil, fmt.Errorf("core: polynomial stretch needs at least 2 nodes, got %d", n)
	}
	if perm.N() != n {
		return nil, fmt.Errorf("core: naming covers %d nodes, graph has %d", perm.N(), n)
	}
	base := cfg.ScaleBase
	if base <= 1 {
		base = 2
	}
	hier, err := hierarchyFor(cfg.Hierarchy, g, m, cfg.K, base, cfg.Variant)
	if err != nil {
		return nil, fmt.Errorf("core: hierarchy: %w", err)
	}
	space := rtmetric.New(g, m, perm.Names)
	uni := blocks.NewUniverse(n, cfg.K)

	s := &PolynomialStretch{g: g, perm: perm, hier: hier, uni: uni, k: cfg.K, levels: len(hier.Levels), nodes: make([]*polyTable, n)}
	space.Precompute(cfg.BuildWorkers)
	// digits[w*K+j] is digit j of node w's name: the dictionary pass
	// compares digits, it never divides.
	digits := make([]int32, n*cfg.K)
	for w := 0; w < n; w++ {
		for j, d := range uni.Digits(perm.Name(int32(w))) {
			digits[w*cfg.K+j] = int32(d)
		}
	}
	scratch := make([]polyDictScratch, parallel.Workers(n, cfg.BuildWorkers))
	err = parallel.ForEachWorker(n, cfg.BuildWorkers, func(wk, u int) error {
		self := graph.NodeID(u)
		ms := hier.Memberships(self)
		tab := &polyTable{
			selfName: perm.Name(int32(u)),
			hop:      rtz.HopTable{Self: self, Trees: ms},
			trees:    make([]polyTree, len(ms)),
			home:     make([]int32, len(hier.Levels)),
		}
		for li, lvl := range hier.Levels {
			i, ok := tab.hop.Find(cover.TreeRef{Level: int32(li), Index: lvl.Cover.Home[u]})
			if !ok {
				return fmt.Errorf("core: node %d is outside its level-%d home tree", u, li)
			}
			tab.home[li] = int32(i)
		}
		ranks := space.Ranks(self)
		for i, e := range ms {
			tr := hier.Tree(e.Ref)
			own, _ := tr.LabelOf(self)
			tab.trees[i] = polyTree{own: own, dict: scratch[wk].build(tr, self, ranks, digits, perm, uni)}
		}
		s.nodes[u] = tab
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// polyDictScratch is one build worker's slot table for dictionary (c):
// per (j, τ), the Init_u rank and tree slot of the best member so far.
type polyDictScratch struct {
	rank []int32
	slot []int32
}

// build fills node u's dictionary for tree tr in one pass over the
// tree's members: slot (j, τ) goes to the member lowest in Init_u whose
// name agrees with u's on the first j digits and continues with τ — the
// first match a walk of Init_u would meet, since ranks are distinct.
// A member competes at j = 0 and at each further j while its digits
// keep matching u's; only u itself matches all K, and u never competes.
// Slot (j, τ) is index j·q + τ of the table, so the dictionary comes out
// ascending by key.
func (sc *polyDictScratch) build(tr *tree.Tree, u graph.NodeID, ranks, digits []int32, perm *names.Permutation, uni blocks.Universe) []polyDictEntry {
	k, q := uni.K, uni.Q
	if sc.rank == nil {
		sc.rank, sc.slot = make([]int32, k*q), make([]int32, k*q)
	}
	for i := range sc.rank {
		sc.rank[i] = math.MaxInt32
	}
	self := digits[int(u)*k : int(u)*k+k]
	filled := 0
	for mi, w := range tr.Members {
		if w == u {
			continue
		}
		rk := ranks[w]
		dw := digits[int(w)*k : int(w)*k+k]
		for j := 0; j < k; j++ {
			i := j*q + int(dw[j])
			if rk < sc.rank[i] {
				if sc.rank[i] == math.MaxInt32 {
					filled++
				}
				sc.rank[i], sc.slot[i] = rk, int32(mi)
			}
			if dw[j] != self[j] {
				break
			}
		}
	}
	dict := make([]polyDictEntry, 0, filled)
	for i, rk := range sc.rank {
		if rk != math.MaxInt32 {
			mi := int(sc.slot[i])
			dict = append(dict, polyDictEntry{key: int32(i), name: perm.Name(int32(tr.Members[mi])), label: tr.LabelAt(mi)})
		}
	}
	return dict
}

// SchemeName implements Scheme.
func (s *PolynomialStretch) SchemeName() string { return fmt.Sprintf("polystretch(k=%d)", s.k) }

// computeNext implements NextNode (§4.2) at the current node, escalating
// levels at the source when the current tree has no matching entry.
func (s *PolynomialStretch) computeNext(tab *polyTable, h *PolyHeader) error {
	for {
		i, ok := tab.hop.Find(h.Leg.Ref)
		if !ok {
			return fmt.Errorf("core: node %d outside its routing tree %v", tab.selfName, h.Leg.Ref)
		}
		j, q := s.uni.MatchLen(tab.selfName, h.DestName), int32(s.uni.Q)
		key, dict := int32(j)*q+s.uni.Prefix(h.DestName, j+1)%q, tab.trees[i].dict
		if d, ok := slices.BinarySearchFunc(dict, key, func(e polyDictEntry, k int32) int { return cmp.Compare(e.key, k) }); ok {
			h.NextWaypointName = dict[d].name
			h.Leg = rtz.HopHeader{Ref: h.Leg.Ref, Target: dict[d].label}
			return nil
		}
		// Failure in this tree.
		if tab.selfName != h.SrcName {
			// Send the packet home; the source will escalate.
			h.NextWaypointName = h.SrcName
			h.Leg = rtz.HopHeader{Ref: h.Leg.Ref, Target: h.SourceLabel}
			return nil
		}
		// At the source: escalate to the next level's home tree.
		if err := s.escalate(tab, h); err != nil {
			return err
		}
	}
}

// escalate moves the search to the source's home tree one level up
// (Fig. 11's "Level <- Level * 2" step on the scale ladder).
func (s *PolynomialStretch) escalate(tab *polyTable, h *PolyHeader) error {
	if h.Level < 0 || int(h.Level)+1 >= s.levels {
		return fmt.Errorf("core: level ladder exhausted routing %d -> %d", h.SrcName, h.DestName)
	}
	h.Level++
	tab.homeTree(h)
	return nil
}

// Forward implements the Fig. 11 local routing algorithm.
func (s *PolynomialStretch) Forward(at graph.NodeID, header sim.Header) (graph.PortID, bool, error) {
	h, ok := header.(*PolyHeader)
	if !ok {
		return 0, false, fmt.Errorf("core: polystretch got %T header", header)
	}
	tab := s.nodes[at]
	nx := tab.selfName

	switch h.Mode {
	case ModeNewPacket:
		h.Mode = ModeOutbound
		h.SrcName = nx
		h.Level = 0
		if h.DestName == nx {
			return 0, true, nil
		}
		tab.homeTree(h)
		if err := s.computeNext(tab, h); err != nil {
			return 0, false, err
		}

	case ModeOutbound:
		if nx == h.DestName {
			// t is always safe to deliver at: it is a member of the
			// current tree whenever the packet reaches it inside that
			// tree, and the return routes within the same tree.
			return 0, true, nil
		}
		if nx == h.NextWaypointName {
			if nx == h.SrcName {
				// A failure return just completed: the current tree is
				// exhausted, so escalate before searching again.
				if err := s.escalate(tab, h); err != nil {
					return 0, false, err
				}
			}
			if err := s.computeNext(tab, h); err != nil {
				return 0, false, err
			}
		}

	case ModeReturnPacket:
		h.Mode = ModeInbound
		h.Found = true
		if nx == h.SrcName {
			return 0, true, nil
		}
		h.NextWaypointName = h.SrcName
		h.Leg = rtz.HopHeader{Ref: h.Leg.Ref, Target: h.SourceLabel}

	case ModeInbound:
		if nx == h.SrcName {
			return 0, true, nil
		}

	default:
		return 0, false, fmt.Errorf("core: invalid mode %v", h.Mode)
	}

	// Forward within the current tree: climb to the root, then descend.
	port, delivered, err := rtz.ForwardHop(&tab.hop, &h.Leg)
	if err != nil {
		return 0, false, err
	}
	if delivered {
		return 0, false, fmt.Errorf("core: tree leg delivered at %d without waypoint match", nx)
	}
	return port, false, nil
}

// NewHeader implements sim.Plane.
func (s *PolynomialStretch) NewHeader(srcName, dstName int32) (sim.Header, error) {
	if dstName < 0 || int(dstName) >= s.perm.N() {
		return nil, fmt.Errorf("core: destination name %d outside [0,%d)", dstName, s.perm.N())
	}
	return &PolyHeader{Mode: ModeNewPacket, DestName: dstName}, nil
}

// ResetHeader implements sim.Plane: rewrite an earlier header in place
// into a fresh Fig. 11 outbound header, allocating nothing.
func (s *PolynomialStretch) ResetHeader(h sim.Header, srcName, dstName int32) error {
	hh, ok := h.(*PolyHeader)
	if !ok {
		return fmt.Errorf("core: polystretch got %T header", h)
	}
	if dstName < 0 || int(dstName) >= s.perm.N() {
		return fmt.Errorf("core: destination name %d outside [0,%d)", dstName, s.perm.N())
	}
	*hh = PolyHeader{Mode: ModeNewPacket, DestName: dstName}
	return nil
}

// BeginReturn implements sim.Plane.
func (s *PolynomialStretch) BeginReturn(h sim.Header) error {
	hh, ok := h.(*PolyHeader)
	if !ok {
		return fmt.Errorf("core: polystretch got %T header", h)
	}
	hh.Mode = ModeReturnPacket
	return nil
}

// NodeOf implements sim.Plane.
func (s *PolynomialStretch) NodeOf(name int32) graph.NodeID {
	return graph.NodeID(s.perm.Node(name))
}

// Graph implements sim.Plane.
func (s *PolynomialStretch) Graph() *graph.Graph { return s.g }

// Roundtrip implements Scheme.
func (s *PolynomialStretch) Roundtrip(srcName, dstName int32) (*sim.RoundtripTrace, error) {
	return sim.Roundtrip(s, srcName, dstName, 0)
}

// K returns the tradeoff parameter.
func (s *PolynomialStretch) K() int { return s.k }

// HomeTreeRoot returns the name of the center of srcName's home
// double-tree at the given level — the relay node of Fig. 10.
func (s *PolynomialStretch) HomeTreeRoot(srcName int32, level int) (int32, error) {
	if s.hier == nil {
		return 0, fmt.Errorf("core: HomeTreeRoot unavailable on a restored deployment (hierarchy not part of local state)")
	}
	if level < 0 || level >= len(s.hier.Levels) {
		return 0, fmt.Errorf("core: level %d outside ladder of %d", level, len(s.hier.Levels))
	}
	t := s.nodes[s.perm.Node(srcName)]
	return s.perm.Name(int32(s.hier.Tree(t.hop.Trees[t.home[level]].Ref).Root)), nil
}

// Levels returns the number of levels in the hierarchy.
func (s *PolynomialStretch) Levels() int { return s.levels }

// Hierarchy returns the cover hierarchy the scheme was built on (nil on
// a restored Deployment).
func (s *PolynomialStretch) Hierarchy() *cover.Hierarchy { return s.hier }

// HopTable returns node v's membership table.
func (s *PolynomialStretch) HopTable(v graph.NodeID) *rtz.HopTable { return &s.nodes[v].hop }

// MaxTableWords implements Scheme.
func (s *PolynomialStretch) MaxTableWords() int {
	m := 0
	for _, t := range s.nodes {
		if w := t.words(); w > m {
			m = w
		}
	}
	return m
}

// AvgTableWords implements Scheme.
func (s *PolynomialStretch) AvgTableWords() float64 {
	total := 0
	for _, t := range s.nodes {
		total += t.words()
	}
	return float64(total) / float64(len(s.nodes))
}

// encodeSection appends node v's section: its name, its home tree per
// level, then its memberships, each with its own label and dictionary in
// (j, τ) order.
func (s *PolynomialStretch) encodeSection(e *codec.Encoder, v graph.NodeID) {
	t, q := s.nodes[v], int32(s.uni.Q)
	e.I(int64(t.selfName))
	e.U(uint64(len(t.home)))
	for _, i := range t.home {
		e.TreeRef(t.hop.Trees[i].Ref)
	}
	encodeHopTable(e, &t.hop, func(i int) {
		pt := &t.trees[i]
		e.TreeLabel(pt.own)
		e.U(uint64(len(pt.dict)))
		for _, de := range pt.dict {
			e.I(int64(de.key / q))
			e.I(int64(de.key % q))
			e.I(int64(de.name))
			e.TreeLabel(de.label)
		}
	})
}

// restorePoly decodes PolynomialStretch sections: escalation reads the
// ladder length from the shared parameters, so every node must hold one
// home tree per level, each one of its memberships at that level.
func restorePoly(st *SchemeState, perm *names.Permutation) (restorer, error) {
	if st.K < 2 {
		return restorer{}, fmt.Errorf("polystretch needs K >= 2, got %d", st.K)
	}
	if st.Levels < 1 {
		return restorer{}, fmt.Errorf("polystretch needs >= 1 level, got %d", st.Levels)
	}
	n := st.Graph.N()
	s := &PolynomialStretch{
		g: st.Graph, perm: perm, uni: blocks.NewUniverse(n, st.K),
		k: st.K, levels: st.Levels, nodes: make([]*polyTable, n),
	}
	k, q := int32(s.k), int32(s.uni.Q)
	home := make([]cover.TreeRef, s.levels)
	node := func(v graph.NodeID, d *codec.Decoder) (err error) {
		t := &polyTable{}
		if t.selfName, err = d.I32(); err != nil {
			return err
		}
		nh, err := d.Count(2)
		if err != nil {
			return err
		}
		if nh != s.levels {
			return fmt.Errorf("%d home trees, ladder has %d levels", nh, s.levels)
		}
		for i := range home {
			if home[i], err = d.TreeRef(); err != nil {
				return err
			}
		}
		t.hop, err = decodeHopTable(d, v, 10, func(i, count int) (err error) {
			if i == 0 {
				t.trees = make([]polyTree, count)
			}
			pt := &t.trees[i]
			if pt.own, err = d.TreeLabel(); err != nil {
				return err
			}
			nd, err := d.Count(5)
			if err != nil {
				return err
			}
			pt.dict = make([]polyDictEntry, nd)
			for di := range pt.dict {
				de := &pt.dict[di]
				j, err := d.I32()
				if err != nil {
					return err
				}
				tau, err := d.I32()
				if err != nil {
					return err
				}
				if j < 0 || j >= k || tau < 0 || tau >= q {
					return d.Fail("dictionary key (%d, %d) outside [0,%d)×[0,%d)", j, tau, k, q)
				}
				de.key = j*q + tau
				if de.name, err = d.I32(); err != nil {
					return err
				}
				if de.label, err = d.TreeLabel(); err != nil {
					return err
				}
			}
			if !ascending(nd, func(i int) int32 { return pt.dict[i].key }) {
				return fmt.Errorf("dictionary keys not strictly ascending")
			}
			return nil
		})
		if err != nil {
			return err
		}
		t.home = make([]int32, len(home))
		for li, ref := range home {
			i, ok := t.hop.Find(ref)
			if !ok || ref.Level != int32(li) {
				return fmt.Errorf("home tree %v of level %d is not a membership at that level", ref, li)
			}
			t.home[li] = int32(i)
		}
		s.nodes[v] = t
		return nil
	}
	return restorer{node: node, finish: func() (Scheme, error) { return s, nil }}, nil
}

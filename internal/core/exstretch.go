package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"

	"rtroute/internal/bitset"
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

// ExStretch is the §3 scheme (Figs. 4 and 6): the exponential
// stretch/space tradeoff. A packet visits waypoints s = v_0, v_1, ...,
// v_k = t where each v_i holds a block whose prefix matches the first i
// digits of the destination name; each leg is routed with the
// name-dependent handshake R2(v_i, v_i+1) through a shared double-tree
// ("Hop"), and the return trip pops the handshake stack.
//
// Per-node storage (§3.3):
//  1. the hop substrate's table Tab(u);
//  2. for every v in N_1(u): (name(v), R2(u,v));
//  3. for every block in S'_u = S_u ∪ {own block}:
//     (a) for every level i < k-1 and digit τ: R2(u,v) for the
//     Init_u-nearest v holding a block matching σ^i and continuing
//     with τ — indexed here by (i, σ^i value, τ), which deduplicates
//     blocks sharing a prefix;
//     (b) for every name j in the block: R2(u, node named j).
//
// R2(u, v) is u's and v's labels in one shared double-tree, and v's
// half depends on (tree, v) alone, so the handshakes are held by
// reference: every entry is an index into the plane's one label store,
// and u's own half is kept once per tree.
type ExStretch struct {
	g            *graph.Graph
	perm         *names.Permutation
	hier         *cover.Hierarchy // nil on a restored Deployment
	uni          blocks.Universe
	assign       *blocks.Assignment
	k            int
	directReturn bool

	nodes []*exTable
	// labels is the label store: a built plane lays the hierarchy's
	// labels out tree by tree in (level, index) order, each member at its
	// tree's base plus its slot; a restored one interns them by (tree,
	// name) as the sections name them.
	labels []ExGlobal
	// claimFallbacks counts the nodes whose (3a) claim walk ran off the
	// end of the kept N_{k-1} prefix unfinished and walked a full Init
	// order instead (build only; zero on a restored plane).
	claimFallbacks int
}

// ExGlobal is one level of a node's globally valid label: its home
// double-tree and its address within it (DirectReturn variant). It is
// also the label store's entry.
type ExGlobal struct {
	Ref   cover.TreeRef
	Label tree.Label
}

// exRef is an item (2) or (3b) entry: a name and the store index of its
// handshake's target label, -1 for the node's own name (the empty
// handshake).
type exRef struct{ name, hs int32 }

// exDictRef is an item (3a) entry under its packed (level, prefix, τ)
// key, with its target's name and handshake as exRef holds them.
type exDictRef struct{ key, target, hs int32 }

// exOwn is the store index of the node's own label in one tree.
type exOwn struct {
	ref   cover.TreeRef
	label int32
}

type exTable struct {
	selfName int32
	// neighbors is storage item (2), ascending by name. Forward never
	// reads it.
	neighbors []exRef
	// dict is storage item (3a), ascending by key.
	dict []exDictRef
	// full is storage item (3b): one run per held block in block order,
	// each the handshakes of the block's names in name order. Every block
	// but the last holds q names, so name j of block b sits at
	// rank(b)·q + j mod q.
	full []int32
	held bitset.Set // the blocks full holds
	// own is the node's label once per tree its handshakes name.
	own []exOwn
	// hopTab is storage item (1).
	hopTab rtz.HopTable
	// global is the node's own globally valid label, present only in the
	// DirectReturn variant (the "second set of routing tables" of §3.5).
	global []ExGlobal
}

// ownLabel returns the store index of the node's label in tree ref, or
// -1 when no handshake names ref.
func (t *exTable) ownLabel(ref cover.TreeRef) int32 {
	for _, o := range t.own {
		if o.ref == ref {
			return o.label
		}
	}
	return -1
}

// handshake rebuilds the full R2(u, target) of an entry whose target
// label is labels[hs]; -1 is the empty handshake of a self-targeted one.
func (s *ExStretch) handshake(t *exTable, hs int32) rtz.Handshake {
	if hs < 0 {
		return rtz.Handshake{}
	}
	v := &s.labels[hs]
	return rtz.Handshake{Ref: v.Ref, ULabel: s.labels[t.ownLabel(v.Ref)].Label, VLabel: v.Label}
}

func labelEqual(a, b tree.Label) bool { return a.Tin == b.Tin && slices.Equal(a.Light, b.Light) }

func (s *ExStretch) words(t *exTable) int {
	w := 1 + t.hopTab.Words()
	for _, r := range t.neighbors {
		w += 1 + s.handshake(t, r.hs).Words()
	}
	for _, r := range t.dict {
		w += 4 + s.handshake(t, r.hs).Words()
	}
	for _, hs := range t.full {
		w += 1 + s.handshake(t, hs).Words()
	}
	for _, g := range t.global {
		w += 2 + g.Label.Words()
	}
	return w
}

// exLists is a node's items (2), (3a) and (3b) in canonical order: what
// fill packs, listed by the builder or read from a section.
type exLists struct {
	neighbors, full []exRef // by name
	dict            []exDictRef
}

// fill packs the items listed in l into t. The builder and the restore
// both come through here, so a decoded section is held to the builder's
// invariants: names and keys strictly ascending, keys in range, and
// item (3b) whole blocks.
func (s *ExStretch) fill(t *exTable, l *exLists) error {
	byName := func(es []exRef) bool { return ascending(len(es), func(i int) int32 { return es[i].name }) }
	if !byName(l.neighbors) || !byName(l.full) {
		return fmt.Errorf("entry names not strictly ascending")
	}
	if !ascending(len(l.dict), func(i int) int32 { return l.dict[i].key }) {
		return fmt.Errorf("dictionary keys out of range or not strictly ascending")
	}
	t.held = *bitset.New(s.uni.NumBlocks())
	t.full = make([]int32, len(l.full))
	for i, e := range l.full {
		b := s.uni.BlockOf(e.name)
		lo, hi := s.uni.NamesInBlock(b)
		first := i == 0 || l.full[i-1].name < lo
		last := i+1 == len(l.full) || l.full[i+1].name >= hi
		if e.name >= hi || (first && e.name != lo) || (!first && e.name != l.full[i-1].name+1) || (last && e.name != hi-1) {
			return fmt.Errorf("full entries are not whole blocks: name %d of block %d", e.name, b)
		}
		t.held.Add(int(b))
		t.full[i] = e.hs
	}
	t.neighbors, t.dict = slices.Clone(l.neighbors), slices.Clone(l.dict)
	return nil
}

// fullEntry returns the store index of name's item (3b) handshake.
func (s *ExStretch) fullEntry(t *exTable, name int32) (int32, bool) {
	if uint32(name) >= uint32(s.uni.N) {
		return 0, false
	}
	b, q := int(s.uni.BlockOf(name)), int32(s.uni.Q)
	if !t.held.Has(b) {
		return 0, false
	}
	return t.full[int32(t.held.Rank(b))*q+name%q], true
}

// dictKey packs a (3a) key. A level's classes (block prefixes one digit
// longer than the level) lie below the block count q^(k-1), so level ·
// q^(k-1) + prefix·q + τ ascends with (level, prefix, τ). It returns -1
// for a triple outside the universe or past the int32 key space.
func (s *ExStretch) dictKey(level int8, prefix, tau int32) int64 {
	q, span := int64(s.uni.Q), int64(s.uni.NumBlocks())
	class := int64(prefix)*q + int64(tau)
	key := int64(level)*span + class
	if level < 0 || int(level) >= s.k-1 || prefix < 0 || tau < 0 || int64(tau) >= q || class >= span || key > math.MaxInt32 {
		return -1
	}
	return key
}

// ExWaypoint is one stack record: the waypoint we departed from and the
// handshake used, so the return trip can retrace it.
type ExWaypoint struct {
	Name int32
	HS   rtz.Handshake
}

// ExHeader is the packet header of Fig. 6.
type ExHeader struct {
	Mode             Mode
	DestName         int32
	SrcName          int32
	Hop              int8
	NextWaypointName int32
	Stack            []ExWaypoint
	Global           []ExGlobal // source's global label (DirectReturn)
	Leg              rtz.HopHeader
	LegSet           bool
}

// Words implements sim.Header. The stack holds at most k handshakes:
// o(k log^2 n) bits as Theorem 9 states. The DirectReturn variant trades
// the stack for the per-level global label.
func (h *ExHeader) Words() int {
	w := 5 + h.Leg.Words()
	for _, rec := range h.Stack {
		w += 1 + rec.HS.Words()
	}
	for _, g := range h.Global {
		w += 2 + g.Label.Words()
	}
	return w
}

var _ sim.Header = (*ExHeader)(nil)
var _ sim.Forwarder = (*ExStretch)(nil)
var _ Scheme = (*ExStretch)(nil)

// ExStretchConfig tunes construction.
type ExStretchConfig struct {
	// K is the tradeoff parameter (word length); >= 2. Tables scale as
	// O~(n^(1/k)) and stretch as (2^k - 1) times the hop stretch.
	K int
	// ScaleBase is the hop substrate's cover scale ratio (default 2).
	ScaleBase float64
	// Variant selects the cover construction (default Awerbuch–Peleg).
	Variant cover.Variant
	// Blocks configures the Lemma 4 assignment.
	Blocks blocks.Config
	// DirectReturn selects the §3.5 variant: instead of retracing the
	// waypoint stack, the packet carries the source's globally valid
	// label (its home tree and address at every level) and the
	// destination routes straight back through the lowest shared tree.
	// The paper notes this costs "longer headers and two sets of routing
	// tables" for a worse worst case — the E4 ablation measures it.
	DirectReturn bool
	// BuildWorkers parallelizes per-node table construction
	// (0 = GOMAXPROCS, 1 = sequential). Output is identical either way.
	BuildWorkers int
	// Hierarchy, when set, is the hop substrate's cover hierarchy: what
	// cover.BuildHierarchy returns over the same graph and oracle for
	// (K, ScaleBase, Variant). nil builds one.
	Hierarchy *cover.Hierarchy
}

// NewExStretch builds the scheme. m may be any distance oracle.
//
// Construction costs what it writes. The Init orders are filled once, on
// all cores, before the block assignment's verifier first reads them.
// Node u's item (3a) is then one walk of Init_u: every node met offers
// the prefix classes of the blocks it holds, and the first match in
// Init_u order wins the slot; the walk ends when every class some node
// realizes is claimed, which Lemma 4 puts inside N_{k-1}(u). Items (2)
// and (3b) are one handshake per entry. Nodes are built on BuildWorkers
// cores from read-only shared state; the tables do not depend on the
// worker count.
func NewExStretch(g *graph.Graph, m graph.DistanceOracle, perm *names.Permutation, rng *rand.Rand, cfg ExStretchConfig) (*ExStretch, error) {
	n := g.N()
	if cfg.K < 2 {
		return nil, fmt.Errorf("core: exstretch needs K >= 2, got %d", cfg.K)
	}
	if n < 2 {
		return nil, fmt.Errorf("core: exstretch needs at least 2 nodes, got %d", n)
	}
	if perm.N() != n {
		return nil, fmt.Errorf("core: naming covers %d nodes, graph has %d", perm.N(), n)
	}
	base := cfg.ScaleBase
	if base <= 1 {
		base = 2
	}

	// Fill every N_{k-1} prefix, the longest the assignment and the claim
	// walk read, on all cores, ahead of the assignment verifier's lazy
	// one-core walk of all n neighborhoods.
	sizes := rtmetric.NeighborhoodSizes(n, cfg.K)
	space := rtmetric.NewPrefix(g, m, perm.Names, sizes[cfg.K-1])
	space.Precompute(cfg.BuildWorkers)
	hier, err := hierarchyFor(cfg.Hierarchy, g, m, cfg.K, base, cfg.Variant)
	if err != nil {
		return nil, fmt.Errorf("core: hop substrate: %w", err)
	}
	bcfg := cfg.Blocks
	bcfg.Names = perm.Names
	assign, err := blocks.AssignWorkers(space, cfg.K, rng, bcfg, cfg.BuildWorkers)
	if err != nil {
		return nil, fmt.Errorf("core: block assignment: %w", err)
	}

	s := &ExStretch{
		g: g, perm: perm, hier: hier, uni: assign.U, assign: assign,
		k: cfg.K, directReturn: cfg.DirectReturn,
		nodes: make([]*exTable, n),
	}

	realized := realizedClasses(assign)

	// The label store: tree (level, index)'s member at slot i is
	// labels[treeAt[level][index]+i].
	treeAt := make([][]int32, len(hier.Levels))
	for li, lvl := range hier.Levels {
		treeAt[li] = make([]int32, len(lvl.Trees))
		for ci, t := range lvl.Trees {
			treeAt[li][ci] = int32(len(s.labels))
			for i := range t.Members {
				s.labels = append(s.labels, ExGlobal{Ref: cover.TreeRef{Level: int32(li), Index: int32(ci)}, Label: t.LabelAt(i)})
			}
		}
	}

	// Per-node tables read only shared immutable state (hierarchy,
	// assignment, Init orders); build them in parallel, each worker
	// listing a node's entries in its reused exLists and packing the
	// tables straight from the lists.
	workers := parallel.Workers(n, cfg.BuildWorkers)
	claimers, scratch := make([]exDictScratch, workers), make([]exLists, workers)
	searches := make([]*cover.TreeSearch, workers)
	for wk := range searches {
		searches[wk] = hier.NewTreeSearch()
	}
	q := int32(assign.U.Q)
	var fallbacks atomic.Int32
	err = parallel.ForEachWorker(n, cfg.BuildWorkers, func(wk, u int) error {
		self, sc, search := graph.NodeID(u), &scratch[wk], searches[wk]
		tab := &exTable{selfName: perm.Name(int32(u)), hopTab: rtz.HopTable{Self: self, Trees: hier.Memberships(self)}}
		// R2(u, v) for every v below is the handshake of the tree the
		// search picks, read from u's tree costs laid out once: v's label
		// is its slot in the shared tree, u's is kept once per tree.
		search.From(self)
		var err error // the first R2 failure; later entries are dropped with it
		entry := func(v graph.NodeID) exRef {
			e := exRef{name: perm.Name(int32(v)), hs: -1}
			if v == self || err != nil {
				return e
			}
			sh, ok := search.Best(v)
			if !ok {
				err = fmt.Errorf("core: no shared double-tree for (%d,%d)", self, v)
				return e
			}
			at := treeAt[sh.Ref.Level][sh.Ref.Index]
			if tab.ownLabel(sh.Ref) < 0 {
				tab.own = append(tab.own, exOwn{ref: sh.Ref, label: at + int32(sh.USlot)})
			}
			e.hs = at + int32(sh.VSlot)
			return e
		}
		// (2) N_1(u) handshakes, by name.
		sc.neighbors = sc.neighbors[:0]
		for _, v := range space.Neighborhood(self, sizes[1]) {
			if v != self {
				sc.neighbors = append(sc.neighbors, entry(v))
			}
		}
		slices.SortFunc(sc.neighbors, func(a, b exRef) int { return cmp.Compare(a.name, b.name) })
		// (3a) prefix-advancing dictionary, deduplicated by (level,
		// prefix value, next digit), in that order. Lemma 4 puts the
		// claims inside N_{k-1}(u); a walk still open at that prefix's end
		// walks the full order again.
		prefix := space.Neighborhood(self, sizes[cfg.K-1])
		claims, done := claimers[wk].claim(assign, realized, self, prefix)
		if !done && len(prefix) < n {
			fallbacks.Add(1)
			claims, _ = claimers[wk].claim(assign, realized, self, space.Neighborhood(self, n))
		}
		slices.SortFunc(claims, func(a, b exDictClaim) int {
			return cmp.Or(cmp.Compare(a.level, b.level), cmp.Compare(a.class, b.class))
		})
		sc.dict = sc.dict[:0]
		for _, c := range claims {
			e := entry(c.target)
			sc.dict = append(sc.dict, exDictRef{key: int32(s.dictKey(c.level, c.class/q, c.class%q)), target: e.name, hs: e.hs})
		}
		// (3b) full dictionary entries of held blocks: ascending names,
		// as the blocks are.
		sc.full = sc.full[:0]
		for _, b := range assign.Sets[u] {
			lo, hi := assign.U.NamesInBlock(b)
			for nm := lo; nm < hi; nm++ {
				sc.full = append(sc.full, entry(graph.NodeID(perm.Node(nm))))
			}
		}
		if err != nil {
			return err
		}
		if err := s.fill(tab, sc); err != nil {
			return fmt.Errorf("core: exstretch node %d: %w", u, err)
		}
		// Global label for the §3.5 direct-return variant.
		if cfg.DirectReturn {
			for li, lvl := range hier.Levels {
				ref := cover.TreeRef{Level: int32(li), Index: lvl.Cover.Home[u]}
				lbl, ok := hier.Tree(ref).LabelOf(self)
				if !ok {
					return fmt.Errorf("core: home tree %v lacks label for %d", ref, u)
				}
				tab.global = append(tab.global, ExGlobal{Ref: ref, Label: lbl})
			}
		}
		s.nodes[u] = tab
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.claimFallbacks = int(fallbacks.Load())
	return s, nil
}

// realizedClasses returns, per level i < k-1, whether any node holds a
// block whose length-(i+1) prefix is c: the (3a) classes that have a
// target at all, so a node's claim walk knows when it is complete.
func realizedClasses(a *blocks.Assignment) [][]bool {
	realized := make([][]bool, a.U.K-1)
	for i, classes := 0, a.U.Q; i < len(realized); i, classes = i+1, classes*a.U.Q {
		realized[i] = make([]bool, classes) // q^(i+1) prefixes of length i+1
	}
	for _, set := range a.Sets {
		for _, b := range set {
			for i := range realized {
				realized[i][a.U.BlockPrefix(b, i+1)] = true
			}
		}
	}
	return realized
}

// exDictClaim is one (3a) entry: at level, the class (a block prefix of
// length level+1) and the node that holds it nearest in Init_u.
type exDictClaim struct {
	level  int8
	class  int32
	target graph.NodeID
}

// exDictScratch is one build worker's state for the (3a) pass. Marks
// are stamped with the node being built, so nothing is cleared between
// nodes.
type exDictScratch struct {
	stamp  int32
	want   [][]int32 // want[i][p] == stamp: u holds a block with length-i prefix p
	found  [][]int32 // found[i][c] == stamp: class c at level i is claimed
	claims []exDictClaim
}

// claim fills node u's (3a) dictionary in one pass over Init_u. Each
// node met offers, per block it holds and per level i < k-1, that
// block's length-(i+1) prefix class; the class is claimed if u holds a
// block sharing its length-i prefix and nobody nearer claimed it — the
// first match in Init_u order wins. The walk stops once every class
// that some node realizes is claimed; done reports whether it did. The
// returned slice is the scratch's own and is overwritten by the next
// call. initOrder may be a prefix of Init_u: the claims are the full
// walk's when done.
func (sc *exDictScratch) claim(a *blocks.Assignment, realized [][]bool, u graph.NodeID, initOrder []graph.NodeID) (claims []exDictClaim, done bool) {
	levels := a.U.K - 1
	if sc.want == nil {
		sc.want, sc.found = make([][]int32, levels), make([][]int32, levels)
		for i := 0; i < levels; i++ {
			sc.found[i] = make([]int32, len(realized[i]))
			sc.want[i] = make([]int32, len(realized[i])/a.U.Q)
		}
	}
	sc.stamp++
	sc.claims = sc.claims[:0]
	q := int32(a.U.Q)
	remaining := 0
	for _, b := range a.Sets[u] {
		for i := 0; i < levels; i++ {
			p := a.U.BlockPrefix(b, i)
			if sc.want[i][p] == sc.stamp {
				continue
			}
			sc.want[i][p] = sc.stamp
			for _, held := range realized[i][p*q : (p+1)*q] {
				if held {
					remaining++
				}
			}
		}
	}
	for _, w := range initOrder {
		if remaining == 0 {
			break
		}
		for _, b := range a.Sets[w] {
			for i := 0; i < levels; i++ {
				c := a.U.BlockPrefix(b, i+1)
				if sc.want[i][c/q] != sc.stamp || sc.found[i][c] == sc.stamp {
					continue
				}
				sc.found[i][c] = sc.stamp
				sc.claims = append(sc.claims, exDictClaim{level: int8(i), class: c, target: w})
				remaining--
			}
		}
	}
	return sc.claims, remaining == 0
}

// SchemeName implements Scheme.
func (s *ExStretch) SchemeName() string {
	if s.directReturn {
		return fmt.Sprintf("exstretch(k=%d,direct-return)", s.k)
	}
	return fmt.Sprintf("exstretch(k=%d)", s.k)
}

// lookupNext finds the next waypoint from node u at hop index i (the
// packet has matched i digits so far): the (3a) dictionary for i+1 < k,
// or the (3b) full entry for the final hop.
func (s *ExStretch) lookupNext(tab *exTable, hopIdx int, destName int32) (int32, rtz.Handshake, error) {
	if hopIdx+1 >= s.k {
		hs, ok := s.fullEntry(tab, destName)
		if !ok {
			return 0, rtz.Handshake{}, fmt.Errorf("core: node %d lacks full entry for %d", tab.selfName, destName)
		}
		return destName, s.handshake(tab, hs), nil
	}
	// σ^i(dest)·q + τ is the destination's prefix one digit longer.
	class, q := s.uni.Prefix(destName, hopIdx+1), int32(s.uni.Q)
	key := int32(s.dictKey(int8(hopIdx), class/q, class%q))
	i, ok := slices.BinarySearchFunc(tab.dict, key, func(e exDictRef, k int32) int { return cmp.Compare(e.key, k) })
	if !ok {
		return 0, rtz.Handshake{}, fmt.Errorf("core: node %d lacks level-%d dictionary entry for %d", tab.selfName, hopIdx, destName)
	}
	return tab.dict[i].target, s.handshake(tab, tab.dict[i].hs), nil
}

// advance runs the Fig. 4 waypoint loop at the current node: skip
// waypoints colocated here, then arm the leg toward the next real
// waypoint (pushing the handshake for the return trip).
func (s *ExStretch) advance(tab *exTable, h *ExHeader) error {
	for {
		if int(h.Hop) >= s.k {
			return fmt.Errorf("core: advance called at hop %d >= k", h.Hop)
		}
		nextName, hs, err := s.lookupNext(tab, int(h.Hop), h.DestName)
		if err != nil {
			return err
		}
		h.Hop++
		if nextName == tab.selfName {
			if int(h.Hop) >= s.k {
				return fmt.Errorf("core: final waypoint equals non-destination node %d", tab.selfName)
			}
			continue
		}
		if !s.directReturn {
			h.Stack = append(h.Stack, ExWaypoint{Name: tab.selfName, HS: hs})
		}
		h.NextWaypointName = nextName
		h.Leg = rtz.HopHeader{Ref: hs.Ref, Target: hs.VLabel}
		h.LegSet = true
		return nil
	}
}

// Forward implements the Fig. 6 local routing algorithm.
func (s *ExStretch) Forward(at graph.NodeID, header sim.Header) (graph.PortID, bool, error) {
	h, ok := header.(*ExHeader)
	if !ok {
		return 0, false, fmt.Errorf("core: exstretch got %T header", header)
	}
	tab := s.nodes[at]
	nx := tab.selfName

	switch h.Mode {
	case ModeNewPacket:
		h.Mode = ModeOutbound
		h.SrcName = nx
		h.Hop = 0
		h.Stack = h.Stack[:0]
		if s.directReturn {
			h.Global = tab.global
		}
		if h.DestName == nx {
			return 0, true, nil
		}
		if err := s.advance(tab, h); err != nil {
			return 0, false, err
		}

	case ModeOutbound:
		if nx == h.NextWaypointName {
			// Deliver only when the destination is the leg target: a
			// packet merely passing through t mid-leg must continue, or
			// the return trip would pop a handshake whose tree need not
			// contain t.
			if nx == h.DestName {
				return 0, true, nil
			}
			if err := s.advance(tab, h); err != nil {
				return 0, false, err
			}
		}

	case ModeReturnPacket:
		h.Mode = ModeInbound
		if nx == h.SrcName {
			return 0, true, nil
		}
		if s.directReturn {
			// §3.5 variant: route straight home through the lowest
			// shared tree of the source's global label.
			for _, g := range h.Global {
				if _, ok := tab.hopTab.Find(g.Ref); ok {
					h.NextWaypointName = h.SrcName
					h.Leg = rtz.HopHeader{Ref: g.Ref, Target: g.Label}
					h.LegSet = true
					break
				}
			}
			if !h.LegSet {
				return 0, false, fmt.Errorf("core: no shared tree with source %d at %d", h.SrcName, nx)
			}
			break
		}
		if len(h.Stack) == 0 {
			return 0, false, fmt.Errorf("core: return packet at %d with empty waypoint stack", nx)
		}
		rec := h.Stack[len(h.Stack)-1]
		h.Stack = h.Stack[:len(h.Stack)-1]
		h.NextWaypointName = rec.Name
		h.Leg = rtz.HopHeader{Ref: rec.HS.Ref, Target: rec.HS.ULabel}
		h.LegSet = true

	case ModeInbound:
		if nx == h.NextWaypointName {
			if len(h.Stack) == 0 {
				if nx != h.SrcName {
					return 0, false, fmt.Errorf("core: stack empty at %d but source is %d", nx, h.SrcName)
				}
				return 0, true, nil
			}
			rec := h.Stack[len(h.Stack)-1]
			h.Stack = h.Stack[:len(h.Stack)-1]
			h.NextWaypointName = rec.Name
			h.Leg = rtz.HopHeader{Ref: rec.HS.Ref, Target: rec.HS.ULabel}
		}

	default:
		return 0, false, fmt.Errorf("core: invalid mode %v", h.Mode)
	}

	if !h.LegSet {
		return 0, false, fmt.Errorf("core: packet at %d has no active leg", nx)
	}
	port, delivered, err := rtz.ForwardHop(&tab.hopTab, &h.Leg)
	if err != nil {
		return 0, false, err
	}
	if delivered {
		return 0, false, fmt.Errorf("core: hop leg delivered at %d without waypoint match", nx)
	}
	return port, false, nil
}

// NewHeader implements sim.Plane.
func (s *ExStretch) NewHeader(srcName, dstName int32) (sim.Header, error) {
	if dstName < 0 || int(dstName) >= s.perm.N() {
		return nil, fmt.Errorf("core: destination name %d outside [0,%d)", dstName, s.perm.N())
	}
	return &ExHeader{Mode: ModeNewPacket, DestName: dstName}, nil
}

// ResetHeader implements sim.Plane: rewrite an earlier header in place
// into a fresh Fig. 6 outbound header. The waypoint stack keeps its
// capacity, so a reused header stops allocating once it has seen a
// k-waypoint route.
func (s *ExStretch) ResetHeader(h sim.Header, srcName, dstName int32) error {
	hh, ok := h.(*ExHeader)
	if !ok {
		return fmt.Errorf("core: exstretch got %T header", h)
	}
	if dstName < 0 || int(dstName) >= s.perm.N() {
		return fmt.Errorf("core: destination name %d outside [0,%d)", dstName, s.perm.N())
	}
	*hh = ExHeader{Mode: ModeNewPacket, DestName: dstName, Stack: hh.Stack[:0]}
	return nil
}

// BeginReturn implements sim.Plane.
func (s *ExStretch) BeginReturn(h sim.Header) error {
	hh, ok := h.(*ExHeader)
	if !ok {
		return fmt.Errorf("core: exstretch got %T header", h)
	}
	hh.Mode = ModeReturnPacket
	return nil
}

// NodeOf implements sim.Plane.
func (s *ExStretch) NodeOf(name int32) graph.NodeID { return graph.NodeID(s.perm.Node(name)) }

// Graph implements sim.Plane.
func (s *ExStretch) Graph() *graph.Graph { return s.g }

// Roundtrip implements Scheme.
func (s *ExStretch) Roundtrip(srcName, dstName int32) (*sim.RoundtripTrace, error) {
	return sim.Roundtrip(s, srcName, dstName, 0)
}

// Waypoints returns the waypoint node sequence s = v_0, ..., v_k = t the
// scheme visits for this pair, computed from the same tables the packet
// would consult. Exposed for the Lemma 8 experiments.
func (s *ExStretch) Waypoints(srcName, dstName int32) ([]graph.NodeID, error) {
	cur := graph.NodeID(s.perm.Node(srcName))
	dst := graph.NodeID(s.perm.Node(dstName))
	seq := []graph.NodeID{cur}
	if cur == dst {
		return seq, nil
	}
	for hop := 0; hop < s.k; {
		tab := s.nodes[cur]
		nextName, _, err := s.lookupNext(tab, hop, dstName)
		if err != nil {
			return nil, err
		}
		hop++
		next := graph.NodeID(s.perm.Node(nextName))
		if next == cur {
			continue
		}
		seq = append(seq, next)
		cur = next
	}
	if cur != dst {
		return nil, fmt.Errorf("core: waypoint walk ended at %d, want %d", cur, dst)
	}
	return seq, nil
}

// PrefixStep is one stop of the Fig. 5 prefix-matching walk.
type PrefixStep struct {
	Node    graph.NodeID
	Name    int32
	Digits  []int // base-q digits of the waypoint's name
	Matched int   // digits of the destination matched by a held block
}

// PrefixTrace reports the Fig. 5 walk: each waypoint with its name
// digits and the destination-prefix length its blocks match — the
// "increasingly matching the destination" illustration.
func (s *ExStretch) PrefixTrace(srcName, dstName int32) ([]PrefixStep, error) {
	if s.assign == nil {
		return nil, fmt.Errorf("core: PrefixTrace unavailable on a restored deployment (block assignment not part of local state)")
	}
	wps, err := s.Waypoints(srcName, dstName)
	if err != nil {
		return nil, err
	}
	steps := make([]PrefixStep, 0, len(wps))
	for _, w := range wps {
		nm := s.perm.Name(int32(w))
		matched := 0
		for i := s.k; i >= 0; i-- {
			if s.HoldsPrefix(w, i, dstName) {
				matched = i
				break
			}
		}
		if nm == dstName {
			matched = s.k
		}
		steps = append(steps, PrefixStep{Node: w, Name: nm, Digits: s.uni.Digits(nm), Matched: matched})
	}
	return steps, nil
}

// Universe exposes the base-q name coding for display tools.
func (s *ExStretch) Universe() blocks.Universe { return s.uni }

// HoldsPrefix reports whether node v stores a block whose first i digits
// match the first i digits of the given name — the §3.4 waypoint
// invariant. Exposed for the experiments. On a restored Deployment the
// block assignment is not part of any node's local state, so HoldsPrefix
// reports false for every query; use PrefixTrace, which returns an
// explicit error, when deployment-origin schemes may reach this code.
func (s *ExStretch) HoldsPrefix(v graph.NodeID, i int, name int32) bool {
	if s.assign == nil {
		return false
	}
	want := s.uni.Prefix(name, i)
	for _, b := range s.assign.Sets[v] {
		if s.uni.BlockPrefix(b, i) == want {
			return true
		}
	}
	return false
}

// MaxTableWords implements Scheme.
func (s *ExStretch) MaxTableWords() int {
	m := 0
	for _, t := range s.nodes {
		if w := s.words(t); w > m {
			m = w
		}
	}
	return m
}

// AvgTableWords implements Scheme.
func (s *ExStretch) AvgTableWords() float64 {
	total := 0
	for _, t := range s.nodes {
		total += s.words(t)
	}
	return float64(total) / float64(len(s.nodes))
}

// unpackKey is dictKey's inverse.
func (s *ExStretch) unpackKey(key int32) (level int8, prefix, tau int32) {
	q, span := int32(s.uni.Q), int32(s.uni.NumBlocks())
	class := key % span
	return int8(key / span), class / q, class % q
}

// sectionEncoder returns the section codec over the label store encoded
// once, into one arena: each handshake copies the node's own label,
// behind its TreeRef, and the target's label from there. A section holds
// the node's name, items (2), (3a) and (3b) in canonical order with
// every handshake whole, the §3.5 global label, then item (1), the hop
// table, in (level, index) order.
func (s *ExStretch) sectionEncoder() func(e *codec.Encoder, v graph.NodeID) {
	var store codec.Encoder
	// labels[i] is store.Buf[at[2i]:at[2i+2]], its label alone from at[2i+1].
	at := make([]int, 2*len(s.labels)+1)
	for i, l := range s.labels {
		store.TreeRef(l.Ref)
		at[2*i+1] = len(store.Buf)
		store.TreeLabel(l.Label)
		at[2*i+2] = len(store.Buf)
	}
	return func(e *codec.Encoder, v graph.NodeID) {
		t := s.nodes[v]
		handshake := func(hs int32) {
			if hs < 0 {
				e.Handshake(rtz.Handshake{})
				return
			}
			u := t.ownLabel(s.labels[hs].Ref)
			e.Buf = append(e.Buf, store.Buf[at[2*u]:at[2*u+2]]...)
			e.Buf = append(e.Buf, store.Buf[at[2*hs+1]:at[2*hs+2]]...)
		}
		e.I(int64(t.selfName))
		e.U(uint64(len(t.neighbors)))
		for _, r := range t.neighbors {
			e.I(int64(r.name))
			handshake(r.hs)
		}
		e.U(uint64(len(t.dict)))
		for _, r := range t.dict {
			level, prefix, tau := s.unpackKey(r.key)
			e.I(int64(level))
			e.I(int64(prefix))
			e.I(int64(tau))
			e.I(int64(r.target))
			handshake(r.hs)
		}
		e.U(uint64(len(t.full)))
		i := 0
		t.held.ForEach(func(b int) {
			lo, hi := s.uni.NamesInBlock(blocks.BlockID(b))
			for nm := lo; nm < hi; nm, i = nm+1, i+1 {
				e.I(int64(nm))
				handshake(t.full[i])
			}
		})
		e.U(uint64(len(t.global)))
		for _, g := range t.global {
			e.TreeRef(g.Ref)
			e.TreeLabel(g.Label)
		}
		encodeHopTable(e, &t.hopTab, nil)
	}
}

// exLabelKey names a label of a restored store: a node's address in one
// tree.
type exLabelKey struct {
	ref  cover.TreeRef
	name int32
}

// restoreEx decodes ExStretch sections into one plane, each packed
// through fill like a built node's lists. Every handshake's two labels
// are interned into the plane's one store by (tree, name), so a name's
// label in a tree must be the same in every entry that gives it: the
// store could not give a disagreeing section back.
func restoreEx(st *SchemeState, perm *names.Permutation) (restorer, error) {
	if st.K < 2 {
		return restorer{}, fmt.Errorf("exstretch needs K >= 2, got %d", st.K)
	}
	n := st.Graph.N()
	s := &ExStretch{
		g: st.Graph, perm: perm, uni: blocks.NewUniverse(n, st.K),
		k: st.K, directReturn: st.DirectReturn, nodes: make([]*exTable, n),
	}
	interned := make(map[exLabelKey]int32)
	intern := func(ref cover.TreeRef, name int32, l tree.Label) (int32, error) {
		key := exLabelKey{ref, name}
		i, ok := interned[key]
		switch {
		case !ok:
			i = int32(len(s.labels))
			s.labels = append(s.labels, ExGlobal{Ref: ref, Label: tree.Label{Tin: l.Tin, Light: slices.Clone(l.Light)}})
			interned[key] = i
		case !labelEqual(s.labels[i].Label, l):
			return 0, fmt.Errorf("label of name %d in tree %v differs from an earlier entry's", name, ref)
		}
		return i, nil
	}
	var l exLists // reused: fill keeps no list
	// A handshake's labels are read into scratch and copied out only the
	// first time their (tree, name) is met, so a restore allocates one
	// root path per store label.
	var scratch codec.Arena[tree.LightHop]
	var t *exTable
	handshake := func(d *codec.Decoder, target int32) (int32, error) {
		scratch.Reset()
		d.Light = &scratch
		hs, err := d.Handshake()
		d.Light = nil
		switch {
		case err != nil:
			return 0, err
		case target == t.selfName:
			if hs.Ref != (cover.TreeRef{}) || !labelEqual(hs.ULabel, tree.Label{}) || !labelEqual(hs.VLabel, tree.Label{}) {
				return 0, fmt.Errorf("self-targeted entry carries a handshake in tree %v", hs.Ref)
			}
			return -1, nil
		}
		if u := t.ownLabel(hs.Ref); u < 0 {
			if u, err = intern(hs.Ref, t.selfName, hs.ULabel); err != nil {
				return 0, err
			}
			t.own = append(t.own, exOwn{ref: hs.Ref, label: u})
		} else if !labelEqual(s.labels[u].Label, hs.ULabel) {
			return 0, fmt.Errorf("handshakes carry two labels of the node in tree %v", hs.Ref)
		}
		return intern(hs.Ref, target, hs.VLabel)
	}
	named := func(d *codec.Decoder, out []exRef) ([]exRef, error) {
		c, err := d.Count(7)
		if err != nil {
			return nil, err
		}
		for i := 0; i < c; i++ {
			var e exRef
			if e.name, err = d.I32(); err != nil {
				return nil, err
			}
			if e.hs, err = handshake(d, e.name); err != nil {
				return nil, err
			}
			out = append(out, e)
		}
		return out, nil
	}
	node := func(v graph.NodeID, d *codec.Decoder) (err error) {
		t = &exTable{}
		if t.selfName, err = d.I32(); err != nil {
			return err
		}
		if l.neighbors, err = named(d, l.neighbors[:0]); err != nil {
			return err
		}
		nd, err := d.Count(10)
		if err != nil {
			return err
		}
		l.dict = l.dict[:0]
		for i := 0; i < nd; i++ {
			lv, err := d.I32()
			if err != nil {
				return err
			}
			if lv < math.MinInt8 || lv > math.MaxInt8 {
				return d.Fail("dictionary level %d outside int8", lv)
			}
			prefix, err := d.I32()
			if err != nil {
				return err
			}
			tau, err := d.I32()
			if err != nil {
				return err
			}
			e := exDictRef{key: int32(s.dictKey(int8(lv), prefix, tau))}
			if e.target, err = d.I32(); err != nil {
				return err
			}
			if e.hs, err = handshake(d, e.target); err != nil {
				return err
			}
			l.dict = append(l.dict, e)
		}
		if l.full, err = named(d, l.full[:0]); err != nil {
			return err
		}
		ng, err := d.Count(3)
		if err != nil {
			return err
		}
		for i := 0; i < ng; i++ {
			var g ExGlobal
			if g.Ref, err = d.TreeRef(); err != nil {
				return err
			}
			if g.Label, err = d.TreeLabel(); err != nil {
				return err
			}
			t.global = append(t.global, g)
		}
		if t.hopTab, err = decodeHopTable(d, v, 7, nil); err != nil {
			return err
		}
		if err := s.fill(t, &l); err != nil {
			return err
		}
		s.nodes[v] = t
		return nil
	}
	return restorer{node: node, finish: func() (Scheme, error) { return s, nil }}, nil
}

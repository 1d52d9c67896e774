package core

import (
	"cmp"
	"fmt"
	"slices"

	"rtroute/internal/bitset"
	"rtroute/internal/blocks"
	"rtroute/internal/cover"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/parallel"
	"rtroute/internal/rtz"
	"rtroute/internal/sealed"
	"rtroute/internal/sim"
	"rtroute/internal/tree"
)

// This file is the per-node decomposition layer: every built scheme
// splits into one LocalState per node — only that node's tables — and a
// Deployment reassembles them into a plane that forwards purely from the
// addressed node's state plus the arriving header. The portable
// LocalState structs are the schema the wire codec encodes; all slices
// are kept in a canonical sorted order so that encoding is deterministic
// (the golden-file tests lock this).

// Kind identifies a scheme on the wire and in a deployment.
type Kind uint8

const (
	// KindStretchSix is the §2 scheme (stretch 6, O~(sqrt n) tables).
	KindStretchSix Kind = 1
	// KindExStretch is the §3 exponential-tradeoff scheme.
	KindExStretch Kind = 2
	// KindPolynomial is the §4 polynomial-tradeoff scheme.
	KindPolynomial Kind = 3
	// KindRTZ is the name-dependent stretch-3 substrate plane.
	KindRTZ Kind = 4
	// KindHop is the Lemma 5 double-tree-cover substrate plane.
	KindHop Kind = 5
)

func (k Kind) String() string {
	switch k {
	case KindStretchSix:
		return "stretch6"
	case KindExStretch:
		return "exstretch"
	case KindPolynomial:
		return "polystretch"
	case KindRTZ:
		return "rtz"
	case KindHop:
		return "hop"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// S6Entry is one dictionary entry of the stretch-6 scheme: a TINN name
// and the topology-dependent address R3 it resolves to.
type S6Entry struct {
	Name  int32
	Label rtz.Label
}

// RTZDirect is one cluster (direct-routing) entry of a stretch-3 table.
type RTZDirect struct {
	Dst  graph.NodeID
	Port graph.PortID
}

// RTZTableLocal is one node's stretch-3 substrate table in portable
// form: per-center in-ports and tree states, plus the direct entries
// sorted by destination.
type RTZTableLocal struct {
	InPorts    []graph.PortID
	TreeStates []tree.State
	Direct     []RTZDirect
}

// S6Local is one node's complete StretchSix state (§2.1 items 1-4).
type S6Local struct {
	SelfName        int32
	OwnLabel        rtz.Label
	Entries         []S6Entry // items (1)+(3), sorted by Name
	BlockHolder     []int32   // item (2), indexed by block id, -1 = none
	NeighborEntries int32     // |item (1)|, for space accounting
	Tab3            RTZTableLocal
}

// RTZLocal is one node's state in a stretch-3 substrate plane: its table
// plus its own address (the deployment gathers the addresses into the
// injection directory).
type RTZLocal struct {
	SelfLabel rtz.Label
	Table     RTZTableLocal
}

// ExNeighbor is one (name, handshake) entry of an ExStretch table.
type ExNeighbor struct {
	Name int32
	HS   rtz.Handshake
}

// ExDictLocal is one prefix-advancing dictionary entry (item 3a).
type ExDictLocal struct {
	Level      int8
	Prefix     int32
	Tau        int32
	TargetName int32
	HS         rtz.Handshake
}

// HopEntryLocal is one double-tree membership entry of a hop table.
type HopEntryLocal struct {
	Ref    cover.TreeRef
	State  tree.State
	InPort graph.PortID
	IsRoot bool
}

// ExLocal is one node's complete ExStretch state (§3.3 items 1-3 plus
// the §3.5 global label).
type ExLocal struct {
	SelfName  int32
	Neighbors []ExNeighbor    // item (2), sorted by Name
	Dict      []ExDictLocal   // item (3a), sorted by (Level, Prefix, Tau)
	Full      []ExNeighbor    // item (3b), sorted by Name
	Global    []ExGlobal      // §3.5 per-level label, level order
	HopTab    []HopEntryLocal // item (1), sorted by Ref
}

// PolyDictLocal is one own-prefix dictionary entry of a §4 tree entry.
type PolyDictLocal struct {
	J     int8
	Tau   int32
	Name  int32
	Label tree.Label
}

// PolyTreeLocal is one node's state for one tree of the §4 hierarchy.
type PolyTreeLocal struct {
	Ref      cover.TreeRef
	State    tree.State
	InPort   graph.PortID
	IsRoot   bool
	OwnLabel tree.Label
	Dict     []PolyDictLocal // sorted by (J, Tau)
}

// PolyLocal is one node's complete PolynomialStretch state (§4.1).
type PolyLocal struct {
	SelfName int32
	Home     []cover.TreeRef // per level
	Trees    []PolyTreeLocal // sorted by Ref
}

// HopLocal is one node's state in a hop substrate plane.
type HopLocal struct {
	Members []HopMember // membership order: sorted by (level, index)
}

// LocalState is one node's complete routing state: exactly one of the
// kind-specific pointers is set. It is the unit the space bounds are
// certified over — everything forwarding at the node reads, and
// everything the wire codec charges to the node.
type LocalState struct {
	Node graph.NodeID
	S6   *S6Local
	Ex   *ExLocal
	Poly *PolyLocal
	RTZ  *RTZLocal
	Hop  *HopLocal
}

// SchemeState is a fully decomposed scheme: the network fabric, the
// naming, the scheme's O(1) shared parameters, and one LocalState per
// node. It is the in-memory form of the wire format.
type SchemeState struct {
	Kind  Kind
	Graph *graph.Graph
	Names []int32 // Names[v] = TINN name of node v

	// O(1) shared parameters ("global knowledge" in the paper's sense,
	// like n itself). The base-q name universe is re-derived from
	// (n, K), never stored.
	K            int  // exstretch / poly tradeoff parameter
	Levels       int  // poly: scale-ladder length
	ViaSource    bool // stretch6 §2.2 variant
	DirectReturn bool // exstretch §3.5 variant
}

// Decomposer splits a built plane into O(1) shared parameters, returned
// now, and per-node local states, returned one node at a time by the
// function on demand, so a consumer that streams (the snapshot codec,
// Assemble) never holds all n. It accepts the three TINN schemes, the
// two core substrate planes, and an already-assembled Deployment. The
// function only reads the plane and may be called concurrently.
func Decomposer(p sim.Plane) (*SchemeState, func(v graph.NodeID) LocalState, error) {
	switch s := p.(type) {
	case *StretchSix:
		return &SchemeState{Kind: KindStretchSix, Graph: s.g, Names: s.perm.Names, ViaSource: s.viaSource}, s.local, nil
	case *ExStretch:
		return &SchemeState{Kind: KindExStretch, Graph: s.g, Names: s.perm.Names, K: s.k, DirectReturn: s.directReturn}, s.local, nil
	case *PolynomialStretch:
		return &SchemeState{Kind: KindPolynomial, Graph: s.g, Names: s.perm.Names, K: s.k, Levels: s.levels}, s.local, nil
	case *RTZPlane:
		return &SchemeState{Kind: KindRTZ, Graph: s.sub.Graph(), Names: s.perm.Names}, s.local, nil
	case *HopPlane:
		return &SchemeState{Kind: KindHop, Graph: s.g, Names: s.perm.Names}, s.local, nil
	case *Deployment:
		return Decomposer(s.scheme)
	default:
		return nil, nil, fmt.Errorf("core: cannot decompose %T", p)
	}
}

func (s *StretchSix) local(v graph.NodeID) LocalState {
	t := s.nodes[v]
	loc := &S6Local{
		SelfName:        t.selfName,
		OwnLabel:        t.ownLabel,
		BlockHolder:     append([]int32(nil), t.blockHolder...),
		NeighborEntries: int32(t.neighborEntries),
		Tab3:            rtzTableLocal(t.tab3),
		Entries:         make([]S6Entry, 0, t.dict.Count()),
	}
	t.dict.ForEach(func(nm int) {
		loc.Entries = append(loc.Entries, S6Entry{Name: int32(nm), Label: s.labels[nm]})
	})
	return LocalState{Node: v, S6: loc}
}

func rtzTableLocal(t *rtz.Table) RTZTableLocal {
	loc := RTZTableLocal{
		InPorts:    append([]graph.PortID(nil), t.InPorts...),
		TreeStates: append([]tree.State(nil), t.TreeStates...),
	}
	t.DirectEntries(func(dst graph.NodeID, port graph.PortID) {
		loc.Direct = append(loc.Direct, RTZDirect{Dst: dst, Port: port})
	})
	slices.SortFunc(loc.Direct, func(a, b RTZDirect) int { return cmp.Compare(a.Dst, b.Dst) })
	return loc
}

// sortedKeys lists a sealed table's keys in ascending order, the
// canonical order of a LocalState's entries; the caller then fetches (a
// label or a rebuilt handshake is too wide to move inside a sort).
func sortedKeys[V any](t *sealed.Table[V]) []int32 {
	keys := make([]int32, 0, t.Len())
	t.Range(func(k int32, _ V) { keys = append(keys, k) })
	slices.Sort(keys)
	return keys
}

// namedLocal lists a name -> handshake table in name order, each
// handshake whole again.
func (t *exTable) namedLocal(tab *sealed.Table[exHS]) []ExNeighbor {
	names := sortedKeys(tab)
	out := make([]ExNeighbor, len(names))
	for i, nm := range names {
		hs, _ := tab.Get(nm)
		out[i] = ExNeighbor{Name: nm, HS: t.handshake(nm, hs)}
	}
	return out
}

func (s *ExStretch) local(v graph.NodeID) LocalState {
	t := s.nodes[v]
	keys := sortedKeys(&t.dict)
	loc := &ExLocal{
		SelfName:  t.selfName,
		Neighbors: t.namedLocal(&t.neighbors),
		Full:      t.namedLocal(&t.full),
		Dict:      make([]ExDictLocal, len(keys)),
		Global:    append([]ExGlobal(nil), t.global...),
		HopTab:    hopEntriesLocal(t.hopTab),
	}
	q, span := int32(s.uni.Q), int32(s.uni.NumBlocks()) // as dictKey packs
	for i, key := range keys {
		e, _ := t.dict.Get(key)
		class := key % span
		loc.Dict[i] = ExDictLocal{
			Level: int8(key / span), Prefix: class / q, Tau: class % q,
			TargetName: e.TargetName, HS: t.handshake(e.TargetName, e.HS),
		}
	}
	return LocalState{Node: v, Ex: loc}
}

func hopEntriesLocal(t *rtz.HopTable) []HopEntryLocal {
	out := make([]HopEntryLocal, 0, len(t.Trees))
	for ref, e := range t.Trees {
		out = append(out, HopEntryLocal{Ref: ref, State: e.State, InPort: e.InPort, IsRoot: e.IsRoot})
	}
	slices.SortFunc(out, func(a, b HopEntryLocal) int { return refCompare(a.Ref, b.Ref) })
	return out
}

func (s *PolynomialStretch) local(v graph.NodeID) LocalState {
	t := s.nodes[v]
	loc := &PolyLocal{
		SelfName: t.selfName,
		Home:     append([]cover.TreeRef(nil), t.home...),
		Trees:    make([]PolyTreeLocal, 0, len(t.trees)),
	}
	for ref, e := range t.trees {
		te := PolyTreeLocal{
			Ref: ref, State: e.state, InPort: e.inPort, IsRoot: e.isRoot, OwnLabel: e.ownLabel,
			Dict: make([]PolyDictLocal, 0, len(e.dict)),
		}
		for k, d := range e.dict {
			te.Dict = append(te.Dict, PolyDictLocal{J: k.J, Tau: k.Tau, Name: d.Name, Label: d.Label})
		}
		slices.SortFunc(te.Dict, func(a, b PolyDictLocal) int {
			return cmp.Or(cmp.Compare(a.J, b.J), cmp.Compare(a.Tau, b.Tau))
		})
		loc.Trees = append(loc.Trees, te)
	}
	slices.SortFunc(loc.Trees, func(a, b PolyTreeLocal) int { return refCompare(a.Ref, b.Ref) })
	return LocalState{Node: v, Poly: loc}
}

func (p *RTZPlane) local(v graph.NodeID) LocalState {
	return LocalState{Node: v, RTZ: &RTZLocal{
		SelfLabel: p.sub.Labels[v],
		Table:     rtzTableLocal(p.sub.Tables[v]),
	}}
}

func (p *HopPlane) local(v graph.NodeID) LocalState {
	return LocalState{Node: v, Hop: &HopLocal{
		Members: append([]HopMember(nil), p.members[v]...),
	}}
}

// Assemble reconstructs a Deployment, route-identical to the scheme the
// state was decomposed from, pulling node v's state from local(v) for v =
// 0, 1, ..., n-1 in turn: the pull form of Decomposer. Each state becomes
// its node's final tables before the next is pulled, and those may keep
// its slices, which local must not reuse. An error from local ends it.
func Assemble(st *SchemeState, local func(v graph.NodeID) (LocalState, error)) (*Deployment, error) {
	if st.Graph == nil {
		return nil, fmt.Errorf("core: assemble: nil graph")
	}
	n := st.Graph.N()
	if n < 2 {
		return nil, fmt.Errorf("core: assemble: need at least 2 nodes, got %d", n)
	}
	perm, err := names.NewPermutation(st.Names)
	if err != nil {
		return nil, fmt.Errorf("core: assemble: %w", err)
	}
	each := func(put func(v graph.NodeID, ls *LocalState) error) error {
		for v := graph.NodeID(0); int(v) < n; v++ {
			ls, err := local(v)
			if err == nil {
				err = put(v, &ls)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	var scheme Scheme
	switch st.Kind {
	case KindStretchSix:
		scheme, err = assembleS6(st, perm, each)
	case KindExStretch:
		scheme, err = assembleEx(st, perm, each)
	case KindPolynomial:
		scheme, err = assemblePoly(st, perm, each)
	case KindRTZ:
		scheme, err = assembleRTZ(st, perm, each)
	case KindHop:
		scheme, err = assembleHop(st, perm, each)
	default:
		return nil, fmt.Errorf("core: assemble: unknown kind %v", st.Kind)
	}
	if err != nil {
		return nil, err
	}
	return NewDeployment(scheme, st.Kind), nil
}

// eachNode hands put every node's state in node order, pulled as it
// goes, and stops at the first error.
type eachNode func(put func(v graph.NodeID, ls *LocalState) error) error

func localKindErr(v graph.NodeID, want Kind) error {
	return fmt.Errorf("core: assemble: node %d local state is not %v state", v, want)
}

// ascending reports whether n keys, the i-th key(i), are non-negative
// and strictly ascending: the canonical order every decoded table
// arrives in, which also makes its keys distinct.
func ascending(n int, key func(i int) int32) bool {
	for i := 0; i < n; i++ {
		if k := key(i); k < 0 || (i > 0 && k <= key(i-1)) {
			return false
		}
	}
	return true
}

func assembleRTZTable(self graph.NodeID, loc *RTZTableLocal, centers int) (*rtz.Table, error) {
	if len(loc.InPorts) != len(loc.TreeStates) {
		return nil, fmt.Errorf("core: assemble: node %d has %d in-ports but %d tree states",
			self, len(loc.InPorts), len(loc.TreeStates))
	}
	if centers >= 0 && len(loc.InPorts) != centers {
		return nil, fmt.Errorf("core: assemble: node %d covers %d centers, want %d", self, len(loc.InPorts), centers)
	}
	dst := func(i int) graph.NodeID { return loc.Direct[i].Dst }
	if !ascending(len(loc.Direct), dst) {
		return nil, fmt.Errorf("core: assemble: node %d direct entries not strictly ascending", self)
	}
	t := &rtz.Table{Self: self, InPorts: loc.InPorts, TreeStates: loc.TreeStates}
	t.CompileDirect(len(loc.Direct), dst, func(i int) graph.PortID { return loc.Direct[i].Port })
	return t, nil
}

// assembleS6 interns every section's dictionary labels into the plane's
// one store, so a name's address must be the same in every section that
// holds it: the store could not give a disagreeing section back.
func assembleS6(st *SchemeState, perm *names.Permutation, each eachNode) (Scheme, error) {
	n := st.Graph.N()
	uni := blocks.NewUniverse(n, 2)
	s := &StretchSix{g: st.Graph, perm: perm, uni: uni, viaSource: st.ViaSource, nodes: make([]*s6Table, n), labels: make([]rtz.Label, n)}
	interned := bitset.New(n)
	centers := -1
	return s, each(func(v graph.NodeID, ls *LocalState) error {
		loc := ls.S6
		if loc == nil {
			return localKindErr(v, KindStretchSix)
		}
		if len(loc.BlockHolder) != uni.NumBlocks() {
			return fmt.Errorf("core: assemble: node %d has %d block holders, universe has %d blocks",
				v, len(loc.BlockHolder), uni.NumBlocks())
		}
		tab3, err := assembleRTZTable(v, &loc.Tab3, centers)
		if err != nil {
			return err
		}
		centers = len(tab3.InPorts)
		if !ascending(len(loc.Entries), func(i int) int32 { return loc.Entries[i].Name }) {
			return fmt.Errorf("core: assemble: node %d dictionary names not strictly ascending", v)
		}
		dict := *bitset.New(n)
		for _, e := range loc.Entries {
			nm := int(e.Name)
			switch {
			case nm >= n:
				return fmt.Errorf("core: assemble: node %d: dictionary name %d outside [0,%d)", v, nm, n)
			case !interned.Has(nm):
				s.labels[nm] = e.Label
				interned.Add(nm)
			case !s.labels[nm].Equal(e.Label):
				return fmt.Errorf("core: assemble: node %d: address of name %d differs from an earlier node's", v, nm)
			}
			dict.Add(nm)
		}
		s.nodes[v] = &s6Table{
			selfName:        loc.SelfName,
			ownLabel:        loc.OwnLabel,
			dict:            dict,
			blockHolder:     loc.BlockHolder,
			tab3:            tab3,
			neighborEntries: int(loc.NeighborEntries),
		}
		return nil
	})
}

func assembleEx(st *SchemeState, perm *names.Permutation, each eachNode) (Scheme, error) {
	n := st.Graph.N()
	if st.K < 2 {
		return nil, fmt.Errorf("core: assemble: exstretch needs K >= 2, got %d", st.K)
	}
	s := &ExStretch{
		g: st.Graph, perm: perm, uni: blocks.NewUniverse(n, st.K),
		k: st.K, directReturn: st.DirectReturn, nodes: make([]*exTable, n),
	}
	return s, each(func(v graph.NodeID, ls *LocalState) error {
		loc := ls.Ex
		if loc == nil {
			return localKindErr(v, KindExStretch)
		}
		s.nodes[v] = &exTable{selfName: loc.SelfName, hopTab: assembleHopTable(v, loc.HopTab), global: loc.Global}
		return s.fill(v, s.nodes[v], loc)
	})
}

func assembleHopTable(self graph.NodeID, entries []HopEntryLocal) *rtz.HopTable {
	t := &rtz.HopTable{Self: self, Trees: make(map[cover.TreeRef]rtz.HopEntry, len(entries))}
	for _, e := range entries {
		t.Trees[e.Ref] = rtz.HopEntry{State: e.State, InPort: e.InPort, IsRoot: e.IsRoot}
	}
	return t
}

func assemblePoly(st *SchemeState, perm *names.Permutation, each eachNode) (Scheme, error) {
	n := st.Graph.N()
	if st.K < 2 {
		return nil, fmt.Errorf("core: assemble: polystretch needs K >= 2, got %d", st.K)
	}
	if st.Levels < 1 {
		return nil, fmt.Errorf("core: assemble: polystretch needs >= 1 level, got %d", st.Levels)
	}
	s := &PolynomialStretch{
		g: st.Graph, perm: perm, uni: blocks.NewUniverse(n, st.K),
		k: st.K, levels: st.Levels, nodes: make([]*polyTable, n),
	}
	return s, each(func(v graph.NodeID, ls *LocalState) error {
		loc := ls.Poly
		if loc == nil {
			return localKindErr(v, KindPolynomial)
		}
		if len(loc.Home) != st.Levels {
			return fmt.Errorf("core: assemble: node %d has %d home trees, ladder has %d levels",
				v, len(loc.Home), st.Levels)
		}
		tab := &polyTable{
			selfName: loc.SelfName,
			trees:    make(map[cover.TreeRef]*polyTreeEntry, len(loc.Trees)),
			home:     loc.Home,
		}
		for _, te := range loc.Trees {
			e := &polyTreeEntry{
				state: te.State, inPort: te.InPort, isRoot: te.IsRoot, ownLabel: te.OwnLabel,
				dict: make(map[polyDictKey]polyDictEntry, len(te.Dict)),
			}
			for _, d := range te.Dict {
				e.dict[polyDictKey{J: d.J, Tau: d.Tau}] = polyDictEntry{Name: d.Name, Label: d.Label}
			}
			tab.trees[te.Ref] = e
		}
		s.nodes[v] = tab
		return nil
	})
}

func assembleRTZ(st *SchemeState, perm *names.Permutation, each eachNode) (Scheme, error) {
	n := st.Graph.N()
	tables := make([]*rtz.Table, n)
	labels := make([]rtz.Label, n)
	centers := -1
	err := each(func(v graph.NodeID, ls *LocalState) error {
		loc := ls.RTZ
		if loc == nil {
			return localKindErr(v, KindRTZ)
		}
		t, err := assembleRTZTable(v, &loc.Table, centers)
		if err != nil {
			return err
		}
		centers = len(t.InPorts)
		tables[v] = t
		labels[v] = loc.SelfLabel
		return nil
	})
	if err != nil {
		return nil, err
	}
	sub, err := rtz.AssembleScheme(st.Graph, tables, labels)
	if err != nil {
		return nil, err
	}
	return NewRTZPlane(sub, perm)
}

func assembleHop(st *SchemeState, perm *names.Permutation, each eachNode) (Scheme, error) {
	n := st.Graph.N()
	tables := make([]*rtz.HopTable, n)
	members := make([][]HopMember, n)
	err := each(func(v graph.NodeID, ls *LocalState) error {
		loc := ls.Hop
		if loc == nil {
			return localKindErr(v, KindHop)
		}
		t := &rtz.HopTable{Self: v, Trees: make(map[cover.TreeRef]rtz.HopEntry, len(loc.Members))}
		for _, m := range loc.Members {
			t.Trees[m.Ref] = rtz.HopEntry{State: m.State, InPort: m.InPort, IsRoot: m.IsRoot}
		}
		tables[v] = t
		members[v] = loc.Members
		return nil
	})
	if err != nil {
		return nil, err
	}
	return AssembleHopPlane(st.Graph, perm, tables, members)
}

// Deployment is a scheme reassembled from per-node local state. It
// implements sim.Plane — the sequential tracer and the concurrent traffic
// engine drive it exactly like a monolithic scheme — and every Forward is
// the paper's F(table(x), header(P)): the assembled scheme reads only
// the addressed node's table and the arriving header. Header injection
// (NewHeader/BeginReturn) delegates to the assembled scheme, which holds
// only the deployment-wide shared state the model grants sources (the
// naming and, for the name-dependent substrates, the address directory
// gathered from the nodes' own labels).
type Deployment struct {
	kind      Kind
	scheme    Scheme
	n         int   // node count: churn rebinds schemes, never resizes them
	nodeBytes []int // per-node wire bytes, set when restored from a snapshot
}

var _ Scheme = (*Deployment)(nil)

// NewDeployment wraps an assembled scheme.
func NewDeployment(s Scheme, kind Kind) *Deployment {
	return &Deployment{kind: kind, scheme: s, n: s.Graph().N()}
}

// Rebind repoints the deployment at a repaired scheme without replacing
// the Deployment value its callers hold. Every repair publishes a new
// plane, for every kind, so this is how the cluster's churn path moves a
// shard to the next epoch: on the shard's serving goroutine, between
// two served batches, keeping the views and stats wired to the
// Deployment attached.
func (d *Deployment) Rebind(s Scheme) { d.scheme = s }

// Deploy decomposes a built scheme into per-node local states and
// reassembles them as a Deployment — the in-process equivalent of a
// marshal/unmarshal roundtrip, certifying that per-node state suffices.
// Nodes are decomposed a window at a time, 32 per core, and assembled in
// node order, so one window of local states is live beside the tables.
func Deploy(p sim.Plane) (*Deployment, error) {
	st, local, err := Decomposer(p)
	if err != nil {
		return nil, err
	}
	win := make([]LocalState, parallel.Workers(st.Graph.N(), 0)*32)
	lo := -len(win)
	return Assemble(st, func(v graph.NodeID) (LocalState, error) {
		if int(v) >= lo+len(win) {
			lo = int(v)
			_ = parallel.ForEach(min(len(win), st.Graph.N()-lo), 0, func(i int) error { // never fails
				win[i] = local(graph.NodeID(lo + i))
				return nil
			})
		}
		return win[int(v)-lo], nil
	})
}

// Kind returns the deployed scheme kind.
func (d *Deployment) Kind() Kind { return d.kind }

// Scheme returns the assembled scheme the deployment forwards with.
func (d *Deployment) Scheme() Scheme { return d.scheme }

// Flatten returns the assembled scheme as a serving plane: Forward(v, h)
// is by construction Scheme().Forward(v, h) behind a bounds check, so a
// compiler of planes (the traffic engine's Compile) may substitute the
// scheme on the hot path — serving the Deployment at the scheme's own
// per-hop cost — without changing a single route.
func (d *Deployment) Flatten() sim.Plane { return d.scheme }

// Naming returns the deployment's name permutation.
func (d *Deployment) Naming() *names.Permutation {
	switch s := d.scheme.(type) {
	case *StretchSix:
		return s.perm
	case *ExStretch:
		return s.perm
	case *PolynomialStretch:
		return s.perm
	case *RTZPlane:
		return s.perm
	case *HopPlane:
		return s.perm
	default:
		return nil
	}
}

// SetEncodedSizes records the per-node wire sizes (bytes); the codec
// calls this when a deployment is restored from or measured against a
// snapshot.
func (d *Deployment) SetEncodedSizes(sizes []int) { d.nodeBytes = sizes }

// EncodedSize returns node v's table size in wire bytes — the empirical
// Theorem 6/11 space bound — or -1 when the deployment was assembled
// in-process without going through the codec.
func (d *Deployment) EncodedSize(v graph.NodeID) int {
	if d.nodeBytes == nil {
		return -1
	}
	return d.nodeBytes[v]
}

// Forward implements sim.Forwarder: the assembled scheme's forwarding
// function at a node the deployment has.
func (d *Deployment) Forward(at graph.NodeID, h sim.Header) (graph.PortID, bool, error) {
	if at < 0 || int(at) >= d.n {
		return 0, false, fmt.Errorf("core: deployment has no node %d", at)
	}
	return d.scheme.Forward(at, h)
}

// NewHeader implements sim.Plane.
func (d *Deployment) NewHeader(srcName, dstName int32) (sim.Header, error) {
	return d.scheme.NewHeader(srcName, dstName)
}

// ResetHeader implements sim.Plane.
func (d *Deployment) ResetHeader(h sim.Header, srcName, dstName int32) error {
	return d.scheme.ResetHeader(h, srcName, dstName)
}

// BeginReturn implements sim.Plane.
func (d *Deployment) BeginReturn(h sim.Header) error { return d.scheme.BeginReturn(h) }

// NodeOf implements sim.Plane.
func (d *Deployment) NodeOf(name int32) graph.NodeID { return d.scheme.NodeOf(name) }

// Graph implements sim.Plane.
func (d *Deployment) Graph() *graph.Graph { return d.scheme.Graph() }

// SchemeName implements Scheme. The name matches the monolithic
// scheme's, so measurement reports compare line for line.
func (d *Deployment) SchemeName() string { return d.scheme.SchemeName() }

// Roundtrip implements Scheme.
func (d *Deployment) Roundtrip(srcName, dstName int32) (*sim.RoundtripTrace, error) {
	return sim.Roundtrip(d, srcName, dstName, 0)
}

// MaxTableWords implements Scheme.
func (d *Deployment) MaxTableWords() int { return d.scheme.MaxTableWords() }

// AvgTableWords implements Scheme.
func (d *Deployment) AvgTableWords() float64 { return d.scheme.AvgTableWords() }

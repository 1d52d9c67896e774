package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"rtroute/internal/bitset"
	"rtroute/internal/blocks"
	"rtroute/internal/codec"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/parallel"
	"rtroute/internal/rtmetric"
	"rtroute/internal/rtz"
	"rtroute/internal/sim"
	"rtroute/internal/tree"
)

// StretchSix is the §2 scheme: a TINN compact roundtrip routing scheme
// with O~(sqrt n) tables and stretch 6.
//
// Per-node storage (§2.1):
//  1. for every v in N(u) — the first ceil(sqrt n) nodes of Init_u — the
//     pair (name(v), R3(v));
//  2. for every block index i, the name of a node t in N(u) with
//     B_i in S_t (Lemma 1 guarantees one exists);
//  3. for every block B in S_u and every name j in B, the pair
//     (j, R3(node named j));
//  4. the substrate table Tab3(u) of the stretch-3 name-dependent scheme.
//
// Within one plane R3(v) depends on v alone, so the pairs of items (1)
// and (3) are held by reference: a node's dictionary is the set of names
// it stores, and every dictionary reads the one address per name in
// labels.
type StretchSix struct {
	g         *graph.Graph
	perm      *names.Permutation
	sub       *rtz.Scheme
	uni       blocks.Universe
	viaSource bool
	nodes     []*s6Table
	// labels[name] is R3(name), for every name some dictionary holds.
	labels []rtz.Label
}

type s6Table struct {
	selfName int32
	ownLabel rtz.Label
	// dict merges storage items (1) and (3): the names whose pair
	// (name, labels[name]) this node stores.
	dict bitset.Set
	// blockHolder is storage item (2): block id -> name of a
	// neighborhood node holding that block.
	blockHolder []int32
	// tab3 is storage item (4).
	tab3 *rtz.Table

	neighborEntries int // size of (1), for accounting
}

func (t *s6Table) words(labels []rtz.Label) int {
	w := 2 + t.ownLabel.Words() + t.tab3.Words() + 2*len(t.blockHolder)
	t.dict.ForEach(func(nm int) { w += 1 + labels[nm].Words() })
	return w
}

// entry returns R3(nm) when nm is in tab's dictionary.
func (s *StretchSix) entry(tab *s6Table, nm int32) (rtz.Label, bool) {
	if uint32(nm) >= uint32(len(s.labels)) || !tab.dict.Has(int(nm)) {
		return rtz.Label{}, false
	}
	return s.labels[nm], true
}

// S6Stage tracks the ViaSource variant's progress through its
// s -> w -> s -> t itinerary.
type S6Stage int8

const (
	S6StageDirect S6Stage = iota
	S6StageFetch
	S6StageFetchReturn
	S6StageFinal
)

// S6Header is the packet header of Fig. 3.
type S6Header struct {
	Mode     Mode
	DestName int32
	SrcName  int32
	SrcLabel rtz.Label
	DictName int32 // name of the dictionary waypoint w, -1 when direct
	Stage    S6Stage
	Fetched  rtz.Label // R3(t) fetched at w (ViaSource variant only)
	Leg      rtz.Header
	LegSet   bool

	// Cached word counts of Leg, SrcLabel and Fetched. The header is
	// measured on every hop but rewritten only at waypoints, so Words
	// must not re-walk the label structures per hop; setLeg/setSrcLabel/
	// setFetched keep the caches in step (locked by
	// TestS6HeaderWordsCacheConsistent).
	legW, srcW, fetchedW int32
}

func (h *S6Header) setLeg(l rtz.Header) {
	h.Leg = l
	h.legW = int32(l.Words())
	h.LegSet = true
}

func (h *S6Header) setSrcLabel(l rtz.Label) {
	h.SrcLabel = l
	h.srcW = int32(l.Words())
}

func (h *S6Header) setFetched(l rtz.Label) {
	h.Fetched = l
	h.fetchedW = int32(l.Words())
}

// PrimeWordCaches sets the cached word counts for the lazy flight-frame
// decoder, which writes the exported fields directly and may leave
// SrcLabel/Fetched undecoded on a forwarding shard: all three word
// counts travel in the frame's fixed section, so the header measures
// exactly like the fully decoded original without re-walking any label
// structure per crossing.
func (h *S6Header) PrimeWordCaches(legW, srcW, fetchedW int32) {
	h.legW = legW
	h.srcW = srcW
	h.fetchedW = fetchedW
}

// Words implements sim.Header.
func (h *S6Header) Words() int {
	w := 6 + int(h.legW)
	if h.Mode >= ModeOutbound {
		w += int(h.srcW)
	}
	if h.Stage == S6StageFetchReturn || h.Stage == S6StageFinal {
		w += int(h.fetchedW)
	}
	return w
}

// wordsRecomputed is the reference implementation of Words, re-deriving
// every cached component; the cache-consistency test compares the two.
func (h *S6Header) wordsRecomputed() int {
	w := 6 + h.Leg.Words()
	if h.Mode >= ModeOutbound {
		w += h.SrcLabel.Words()
	}
	if h.Stage == S6StageFetchReturn || h.Stage == S6StageFinal {
		w += h.Fetched.Words()
	}
	return w
}

var _ sim.Header = (*S6Header)(nil)
var _ sim.Forwarder = (*StretchSix)(nil)
var _ Scheme = (*StretchSix)(nil)

// Stretch6Config tunes construction.
type Stretch6Config struct {
	// Blocks configures the Lemma 1 assignment.
	Blocks blocks.Config
	// ViaSource selects the variant discussed at the end of §2.2: route
	// s -> w -> s to fetch the destination's address, then s -> t -> s.
	// Same worst-case stretch 6, but "it can result in longer paths
	// since it always routes back through s" — the E3 ablation measures
	// exactly that.
	ViaSource bool
	// BuildWorkers parallelizes per-node table construction
	// (0 = GOMAXPROCS, 1 = sequential). Output is identical either way.
	BuildWorkers int
}

// NewStretchSix builds the scheme over g with naming perm. m may be any
// distance oracle; construction never requires the n×n distance matrix.
func NewStretchSix(g *graph.Graph, m graph.DistanceOracle, perm *names.Permutation, rng *rand.Rand, cfg Stretch6Config) (*StretchSix, error) {
	mt, err := newS6(g, m, perm, rng, cfg)
	if err != nil {
		return nil, err
	}
	return mt.s, nil
}

// newS6 is the one StretchSix construction, plain and maintained alike.
// One per-node pass consumes each node's two distance rows —
// the substrate hands them to its Visit hook, which sorts Init_y, and
// then solves C(y) from them — so a lazy-oracle build costs one forward
// and one reverse search per node plus the center trees, whatever the
// oracle's row budget.
func newS6(g *graph.Graph, m graph.DistanceOracle, perm *names.Permutation, rng *rand.Rand, cfg Stretch6Config) (*S6Maintainer, error) {
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("core: stretch-6 needs at least 2 nodes, got %d", n)
	}
	if perm.N() != n {
		return nil, fmt.Errorf("core: naming covers %d nodes, graph has %d", perm.N(), n)
	}
	mt := &S6Maintainer{m: m, perm: perm, cfg: cfg, space: rtmetric.New(g, m, perm.Names), nbhdSize: rtmetric.NeighborhoodSizes(n, 2)[1]}
	var err error
	mt.subM, err = rtz.NewMaintained(g, m, rng, rtz.Config{}, rtz.Pass{Workers: cfg.BuildWorkers, Visit: mt.fillOrder})
	if err != nil {
		return nil, fmt.Errorf("core: stretch-3 substrate: %w", err)
	}
	sub := mt.subM.Scheme()
	bcfg := cfg.Blocks
	bcfg.Names = perm.Names
	mt.assign, err = blocks.AssignWorkers(mt.space, 2, rng, bcfg, cfg.BuildWorkers)
	if err != nil {
		return nil, fmt.Errorf("core: block assignment: %w", err)
	}
	mt.s = &StretchSix{g: g, perm: perm, sub: sub, uni: mt.assign.U, viaSource: cfg.ViaSource, nodes: make([]*s6Table, n), labels: make([]rtz.Label, n)}
	for v := range n {
		mt.s.labels[perm.Name(int32(v))] = sub.LabelOf(graph.NodeID(v))
	}

	// Per-node tables depend only on read-only shared state: build them
	// in parallel.
	err = parallel.ForEach(n, cfg.BuildWorkers, func(u int) error {
		tab, err := buildS6Node(u, perm, sub, mt.space, mt.assign, mt.nbhdSize)
		if err != nil {
			return err
		}
		mt.s.nodes[u] = tab
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mt, nil
}

// buildS6Node constructs one node's §2.1 table from the shared read-only
// build state. It is the unit of work both the fresh builder and the
// incremental maintainer run per node.
func buildS6Node(u int, perm *names.Permutation, sub *rtz.Scheme, space *rtmetric.Space, assign *blocks.Assignment, nbhdSize int) (*s6Table, error) {
	numBlocks := assign.U.NumBlocks()
	tab := &s6Table{
		selfName:    perm.Name(int32(u)),
		ownLabel:    sub.LabelOf(graph.NodeID(u)),
		dict:        *bitset.New(perm.N()),
		blockHolder: make([]int32, numBlocks),
		tab3:        sub.Tables[u],
	}
	for i := range tab.blockHolder {
		tab.blockHolder[i] = -1
	}
	nbhd := space.Neighborhood(graph.NodeID(u), nbhdSize)
	// (1) neighborhood dictionary, by name.
	for _, v := range nbhd {
		tab.dict.Add(int(perm.Name(int32(v))))
	}
	tab.neighborEntries = len(nbhd)
	// (2) block holders: the Init_u-nearest holder in N(u).
	for _, v := range nbhd {
		for _, b := range assign.Sets[v] {
			if tab.blockHolder[b] < 0 {
				tab.blockHolder[b] = perm.Name(int32(v))
			}
		}
	}
	for b := 0; b < numBlocks; b++ {
		// Blocks holding no real names need no holder; every block
		// of a real name must be covered (Lemma 1).
		if lo, hi := assign.U.NamesInBlock(blocks.BlockID(b)); tab.blockHolder[b] < 0 && lo < hi {
			return nil, fmt.Errorf("core: node %d has no holder for block %d in its neighborhood", u, b)
		}
	}
	// (3) dictionary entries of the blocks stored here. A name may be in
	// both (1) and (3): it is stored once.
	for _, b := range assign.Sets[u] {
		lo, hi := assign.U.NamesInBlock(b)
		for nm := lo; nm < hi; nm++ {
			tab.dict.Add(int(nm))
		}
	}
	return tab, nil
}

// SchemeName implements Scheme.
func (s *StretchSix) SchemeName() string {
	if s.viaSource {
		return "stretch6(via-source)"
	}
	return "stretch6"
}

// Forward implements the Fig. 3 local routing algorithm.
func (s *StretchSix) Forward(at graph.NodeID, header sim.Header) (graph.PortID, bool, error) {
	h, ok := header.(*S6Header)
	if !ok {
		return 0, false, fmt.Errorf("core: stretch-6 got %T header", header)
	}
	tab := s.nodes[at]
	nx := tab.selfName

	switch h.Mode {
	case ModeNewPacket:
		h.Mode = ModeOutbound
		h.SrcName = nx
		h.setSrcLabel(tab.ownLabel)
		h.DictName = -1
		if h.DestName == nx {
			return 0, true, nil
		}
		if lbl, ok := s.entry(tab, h.DestName); ok {
			h.setLeg(rtz.Header{Dest: lbl.Node, Label: lbl, Phase: rtz.PhaseSeek})
		} else {
			if h.DestName < 0 || int(h.DestName) >= s.uni.N {
				return 0, false, fmt.Errorf("core: destination name %d outside the name space [0,%d)", h.DestName, s.uni.N)
			}
			holder := tab.blockHolder[s.uni.BlockOf(h.DestName)]
			if holder < 0 {
				return 0, false, fmt.Errorf("core: no dictionary holder for name %d at source %d", h.DestName, nx)
			}
			lbl, ok := s.entry(tab, holder)
			if !ok {
				return 0, false, fmt.Errorf("core: holder %d for name %d not in neighborhood table of %d", holder, h.DestName, nx)
			}
			h.DictName = holder
			if s.viaSource {
				h.Stage = S6StageFetch
			}
			h.setLeg(rtz.Header{Dest: lbl.Node, Label: lbl, Phase: rtz.PhaseSeek})
		}

	case ModeReturnPacket:
		h.Mode = ModeInbound
		if nx == h.SrcName {
			return 0, true, nil
		}
		h.setLeg(rtz.Header{Dest: h.SrcLabel.Node, Label: h.SrcLabel, Phase: rtz.PhaseSeek})

	case ModeOutbound:
		switch {
		case nx == h.DestName:
			return 0, true, nil
		case nx == h.DictName:
			// Remote dictionary lookup (Fig. 3's DictID branch).
			lbl, ok := s.entry(tab, h.DestName)
			if !ok {
				return 0, false, fmt.Errorf("core: dictionary node %d lacks entry for %d", nx, h.DestName)
			}
			h.DictName = -1
			if h.Stage == S6StageFetch {
				// §2.2 variant: carry R3(t) back to the source first.
				h.setFetched(lbl)
				h.Stage = S6StageFetchReturn
				h.setLeg(rtz.Header{Dest: h.SrcLabel.Node, Label: h.SrcLabel, Phase: rtz.PhaseSeek})
			} else {
				h.setLeg(rtz.Header{Dest: lbl.Node, Label: lbl, Phase: rtz.PhaseSeek})
			}
		case nx == h.SrcName && h.Stage == S6StageFetchReturn:
			// Back at the source with the fetched address: head to t.
			h.Stage = S6StageFinal
			h.setLeg(rtz.Header{Dest: h.Fetched.Node, Label: h.Fetched, Phase: rtz.PhaseSeek})
		}

	case ModeInbound:
		if nx == h.SrcName {
			return 0, true, nil
		}

	default:
		return 0, false, fmt.Errorf("core: invalid mode %v", h.Mode)
	}

	if !h.LegSet {
		return 0, false, fmt.Errorf("core: packet at %d has no active leg", nx)
	}
	port, delivered, err := rtz.Forward(tab.tab3, &h.Leg)
	if err != nil {
		return 0, false, err
	}
	if delivered {
		// The substrate thinks the leg target is here, but the mode
		// logic above did not recognize this node as a waypoint: the
		// name/label tables disagree, which is a construction bug.
		return 0, false, fmt.Errorf("core: leg delivered at %d without waypoint match", nx)
	}
	return port, false, nil
}

// NewHeader implements sim.Plane: a fresh Fig. 3 header addressed to
// dstName (the source name is learned at the first Forward, as the model
// requires).
func (s *StretchSix) NewHeader(srcName, dstName int32) (sim.Header, error) {
	if dstName < 0 || int(dstName) >= s.perm.N() {
		return nil, fmt.Errorf("core: destination name %d outside [0,%d)", dstName, s.perm.N())
	}
	h := &S6Header{Mode: ModeNewPacket, DestName: dstName, DictName: -1}
	h.legW = int32(h.Leg.Words())
	return h, nil
}

// ResetHeader implements sim.Plane: rewrite an earlier header in place
// into a fresh Fig. 3 outbound header, allocating nothing.
func (s *StretchSix) ResetHeader(h sim.Header, srcName, dstName int32) error {
	hh, ok := h.(*S6Header)
	if !ok {
		return fmt.Errorf("core: stretch-6 got %T header", h)
	}
	if dstName < 0 || int(dstName) >= s.perm.N() {
		return fmt.Errorf("core: destination name %d outside [0,%d)", dstName, s.perm.N())
	}
	*hh = S6Header{Mode: ModeNewPacket, DestName: dstName, DictName: -1}
	hh.legW = int32(hh.Leg.Words())
	return nil
}

// BeginReturn implements sim.Plane: flip the delivered outbound header
// into the acknowledgment leg.
func (s *StretchSix) BeginReturn(h sim.Header) error {
	hh, ok := h.(*S6Header)
	if !ok {
		return fmt.Errorf("core: stretch-6 got %T header", h)
	}
	hh.Mode = ModeReturnPacket
	return nil
}

// NodeOf implements sim.Plane.
func (s *StretchSix) NodeOf(name int32) graph.NodeID { return graph.NodeID(s.perm.Node(name)) }

// Graph implements sim.Plane.
func (s *StretchSix) Graph() *graph.Graph { return s.g }

// Roundtrip implements Scheme: it routes srcName -> dstName and the
// acknowledgment back, as two sim runs sharing one header (the reply
// reuses the topology learned on the way out, §1.1.1).
func (s *StretchSix) Roundtrip(srcName, dstName int32) (*sim.RoundtripTrace, error) {
	return sim.Roundtrip(s, srcName, dstName, 0)
}

// MaxTableWords implements Scheme.
func (s *StretchSix) MaxTableWords() int {
	m := 0
	for _, t := range s.nodes {
		if w := t.words(s.labels); w > m {
			m = w
		}
	}
	return m
}

// AvgTableWords implements Scheme.
func (s *StretchSix) AvgTableWords() float64 {
	total := 0
	for _, t := range s.nodes {
		total += t.words(s.labels)
	}
	return float64(total) / float64(len(s.nodes))
}

// NeighborhoodEntries reports the size of storage item (1) at each node,
// for the space-accounting experiments.
func (s *StretchSix) NeighborhoodEntries(v graph.NodeID) int { return s.nodes[v].neighborEntries }

// LabelOf returns node v's own stretch-3 address.
func (s *StretchSix) LabelOf(v graph.NodeID) rtz.Label { return s.nodes[v].ownLabel }

// sectionEncoder returns the section codec over the label store encoded
// once, into one arena: each dictionary entry copies its address's bytes
// from there. A section holds its name and own address, the dictionary
// ascending by name (each name as the gap from the previous one, which
// stays small whatever n is, then its address), the block holders by
// block id, the neighborhood size, then Tab3.
func (s *StretchSix) sectionEncoder() func(e *codec.Encoder, v graph.NodeID) {
	var labels codec.Encoder
	at := make([]int, len(s.labels)+1) // name nm's address is labels.Buf[at[nm]:at[nm+1]]
	for nm, l := range s.labels {
		labels.RTZLabel(l)
		at[nm+1] = len(labels.Buf)
	}
	return func(e *codec.Encoder, v graph.NodeID) {
		t := s.nodes[v]
		e.I(int64(t.selfName))
		e.RTZLabel(t.ownLabel)
		e.U(uint64(t.dict.Count()))
		prev := 0
		t.dict.ForEach(func(nm int) {
			e.I(int64(nm - prev))
			prev = nm
			e.Buf = append(e.Buf, labels.Buf[at[nm]:at[nm+1]]...)
		})
		e.U(uint64(len(t.blockHolder)))
		for _, h := range t.blockHolder {
			e.I(int64(h))
		}
		e.U(uint64(t.neighborEntries))
		encodeRTZTable(e, t.tab3)
	}
}

// restoreS6 decodes StretchSix sections into one plane. Every section's
// dictionary addresses are interned into the plane's one store, so a
// name's address must be the same in every section that holds it: the
// store could not give a disagreeing section back.
func restoreS6(st *SchemeState, perm *names.Permutation) restorer {
	n := st.Graph.N()
	uni := blocks.NewUniverse(n, 2)
	s := &StretchSix{g: st.Graph, perm: perm, uni: uni, viaSource: st.ViaSource, nodes: make([]*s6Table, n), labels: make([]rtz.Label, n)}
	interned := bitset.New(n)
	centers := -1
	// A dictionary address is read into scratch and copied out only the
	// first time its name is met: every later copy is compared and
	// dropped, so a restore allocates one root path per name.
	var scratch codec.Arena[tree.LightHop]
	node := func(v graph.NodeID, d *codec.Decoder) (err error) {
		t := &s6Table{dict: *bitset.New(n)}
		if t.selfName, err = d.I32(); err != nil {
			return err
		}
		if t.ownLabel, err = d.RTZLabel(); err != nil {
			return err
		}
		entries, err := d.Count(5)
		if err != nil {
			return err
		}
		prev := int64(0)
		for i := 0; i < entries; i++ {
			gap, err := d.I()
			if err != nil {
				return err
			}
			nm := prev + gap
			if nm < math.MinInt32 || nm > math.MaxInt32 {
				return d.Fail("entry name %d outside int32", nm)
			}
			scratch.Reset()
			d.Light = &scratch
			label, err := d.RTZLabel()
			d.Light = nil
			if err != nil {
				return err
			}
			switch {
			case nm < 0 || (i > 0 && nm <= prev):
				return fmt.Errorf("dictionary names not strictly ascending")
			case nm >= int64(n):
				return fmt.Errorf("dictionary name %d outside [0,%d)", nm, n)
			case !interned.Has(int(nm)):
				label.TreeLabel.Light = slices.Clone(label.TreeLabel.Light)
				s.labels[nm] = label
				interned.Add(int(nm))
			case !s.labels[nm].Equal(label):
				return fmt.Errorf("address of name %d differs from an earlier node's", nm)
			}
			t.dict.Add(int(nm))
			prev = nm
		}
		holders, err := d.Count(1)
		if err != nil {
			return err
		}
		if holders != uni.NumBlocks() {
			return fmt.Errorf("%d block holders, universe has %d blocks", holders, uni.NumBlocks())
		}
		t.blockHolder = make([]int32, holders)
		for i := range t.blockHolder {
			if t.blockHolder[i], err = d.I32(); err != nil {
				return err
			}
		}
		nn, err := d.U()
		if err != nil {
			return err
		}
		if nn > codec.MaxNodes {
			return d.Fail("implausible neighborhood size %d", nn)
		}
		t.neighborEntries = int(nn)
		if t.tab3, err = decodeRTZTable(d, v, centers); err != nil {
			return err
		}
		centers = len(t.tab3.InPorts)
		s.nodes[v] = t
		return nil
	}
	return restorer{node: node, finish: func() (Scheme, error) { return s, nil }}
}

// TableEntries counts node v's table entries: dictionary, block holders
// and Tab3's centers and direct entries — the E14 sweep's entries/node.
func (s *StretchSix) TableEntries(v graph.NodeID) int {
	t := s.nodes[v]
	direct := 0
	t.tab3.DirectEntries(func(graph.NodeID, graph.PortID) { direct++ })
	return t.dict.Count() + len(t.blockHolder) + len(t.tab3.InPorts) + direct
}

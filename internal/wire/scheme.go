package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"rtroute/internal/core"
	"rtroute/internal/graph"
	"rtroute/internal/parallel"
	"rtroute/internal/sim"
	"rtroute/internal/tree"
)

// MarshalScheme encodes a built forwarding plane as a self-contained
// snapshot: envelope, network fabric, naming, O(1) shared parameters,
// then one length-prefixed section per node holding exactly that node's
// local state. It accepts what core.Decomposer does: the three TINN
// schemes, the core substrate planes and an assembled Deployment.
func MarshalScheme(p sim.Plane) ([]byte, error) {
	blob, _, err := MarshalSchemeSizes(p)
	return blob, err
}

// MarshalSchemeSizes is MarshalScheme returning, alongside the blob,
// each node's section length in bytes — the same numbers NodeSizes
// reports, without encoding the scheme twice.
func MarshalSchemeSizes(p sim.Plane) ([]byte, []int, error) {
	st, local, err := core.Decomposer(p)
	if err != nil {
		return nil, nil, err
	}
	e := &encoder{}
	e.envelope(blobScheme, st.Kind)
	encodeShared(e, st)
	sizes := encodeSections(e, st.Graph.N(), local)
	return e.buf, sizes, nil
}

// NodeSizes returns the encoded size in bytes of every node's local
// state — the empirical per-node space bound, excluding the shared
// envelope (graph, naming, parameters), which is the network's and the
// model's "global knowledge", not routing state.
func NodeSizes(p sim.Plane) ([]int, error) {
	st, local, err := core.Decomposer(p)
	if err != nil {
		return nil, err
	}
	return encodeSections(nil, st.Graph.N(), local), nil
}

// sectionWindow is how many nodes per worker are decomposed and encoded
// between two stitches. It bounds what is live beside the blob to one
// window of local states and section bodies, whatever n is.
const sectionWindow = 32

// encodeSections decomposes and encodes every node's section on all
// cores and returns the section lengths. Each worker appends the bodies
// it encodes to its own reused buffer; after each window of nodes the
// bodies are stitched into blob in node order, each behind its length,
// so the bytes do not depend on the worker count. blob == nil measures
// without keeping anything.
func encodeSections(blob *encoder, n int, local func(graph.NodeID) core.LocalState) []int {
	workers := parallel.Workers(n, 0)
	encs := make([]encoder, workers)
	type span struct{ worker, off, end int }
	window := workers * sectionWindow
	spans := make([]span, window)
	sizes := make([]int, n)
	for lo := 0; lo < n; lo += window {
		hi := min(lo+window, n)
		_ = parallel.ForEachWorker(hi-lo, workers, func(w, i int) error {
			e := &encs[w]
			off := len(e.buf)
			ls := local(graph.NodeID(lo + i))
			e.local(&ls)
			spans[i] = span{worker: w, off: off, end: len(e.buf)}
			return nil
		})
		sectionBytes := 0
		for i, sp := range spans[:hi-lo] {
			sizes[lo+i] = sp.end - sp.off
			sectionBytes += sp.end - sp.off
			if blob != nil {
				blob.u(uint64(sp.end - sp.off))
				blob.buf = append(blob.buf, encs[sp.worker].buf[sp.off:sp.end]...)
			}
		}
		for w := range encs {
			encs[w].buf = encs[w].buf[:0]
		}
		if blob != nil && lo == 0 {
			// One reservation from the first window's mean section, in
			// place of a chain of grow-and-copy steps.
			perNode := sectionBytes/(hi-lo) + binary.MaxVarintLen32
			blob.buf = slices.Grow(blob.buf, perNode*(n-hi)*21/20)
		}
	}
	return sizes
}

// SectionDiff compares two decomposed planes of one kind over n nodes
// section by section and returns the lowest node whose local states
// encode to different bytes, or -1 when every pair agrees. Pairs are
// decomposed on all cores, each encoded into its worker's two reused
// buffers, compared and dropped, so nothing but the pair in hand is
// live. A section decodes back to exactly the state it encoded, so equal
// bytes are equal states.
func SectionDiff(n int, a, b func(graph.NodeID) core.LocalState) int {
	encs := make([][2]encoder, parallel.Workers(n, 0))
	var mu sync.Mutex
	first := -1
	_ = parallel.ForEachWorker(n, 0, func(w, v int) error { // never fails: every pair is compared
		ea, eb := &encs[w][0], &encs[w][1]
		ea.buf, eb.buf = ea.buf[:0], eb.buf[:0]
		la, lb := a(graph.NodeID(v)), b(graph.NodeID(v))
		ea.local(&la)
		eb.local(&lb)
		if !bytes.Equal(ea.buf, eb.buf) {
			mu.Lock()
			if first < 0 || v < first {
				first = v
			}
			mu.Unlock()
		}
		return nil
	})
	return first
}

// SnapshotInfo is what PeekSnapshot reads from a scheme blob's preamble:
// enough to say what the snapshot is before paying for the full decode.
type SnapshotInfo struct {
	Version uint64
	Kind    core.Kind
	Nodes   int
}

// PeekSnapshot reads a snapshot's envelope and node count without
// decoding the graph or any table. A version mismatch still reports the
// blob's version alongside an error wrapping ErrVersion, so callers can
// tell "snapshot from another release" apart from corruption.
func PeekSnapshot(data []byte) (SnapshotInfo, error) {
	var info SnapshotInfo
	d := &decoder{data: data}
	ver, err := d.preamble()
	if err != nil {
		return info, err
	}
	info.Version = ver
	if ver != Version {
		return info, fmt.Errorf("wire: %w: blob has version %d, this build reads %d", ErrVersion, ver, Version)
	}
	bt, err := d.byte1()
	if err != nil {
		return info, err
	}
	if bt != blobScheme {
		return info, d.fail("blob type %d is not a scheme snapshot", bt)
	}
	k, err := d.byte1()
	if err != nil {
		return info, err
	}
	info.Kind = core.Kind(k)
	nu, err := d.u()
	if err != nil {
		return info, err
	}
	if nu > maxNodes {
		return info, d.fail("node count %d exceeds limit", nu)
	}
	info.Nodes = int(nu)
	return info, nil
}

// UnmarshalScheme decodes a scheme snapshot and reassembles it as a
// Deployment, recording each node's encoded size. Restore streams: each
// section is decoded, compiled into its node's tables by core.Assemble
// and dropped before the next is read.
func UnmarshalScheme(data []byte) (*core.Deployment, error) {
	d := &decoder{data: data}
	kind, err := d.envelope(blobScheme)
	if err != nil {
		return nil, err
	}
	st, err := decodeShared(d, kind)
	if err != nil {
		return nil, err
	}
	sizes := make([]int, st.Graph.N())
	dep, err := core.Assemble(st, func(v graph.NodeID) (core.LocalState, error) {
		size, err := d.count(1)
		if err != nil {
			return core.LocalState{}, err
		}
		if size > d.remaining() {
			return core.LocalState{}, d.fail("node %d section length %d exceeds remaining input", v, size)
		}
		nd := &decoder{data: d.data[d.off : d.off+size]}
		loc, err := decodeLocal(nd, kind, v)
		if err == nil {
			err = nd.done()
		}
		if err != nil {
			return core.LocalState{}, fmt.Errorf("wire: node %d: %w", v, err)
		}
		d.off += size
		sizes[v] = size
		return *loc, nil
	})
	if err != nil {
		return nil, err
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	dep.SetEncodedSizes(sizes)
	return dep, nil
}

// --- shared section ---

func encodeShared(e *encoder, st *core.SchemeState) {
	n := st.Graph.N()
	e.u(uint64(n))
	for _, nm := range st.Names {
		e.u(uint64(nm))
	}
	e.graph(st.Graph)
	e.u(uint64(st.K))
	e.u(uint64(st.Levels))
	e.b(st.ViaSource)
	e.b(st.DirectReturn)
}

func decodeShared(d *decoder, kind core.Kind) (*core.SchemeState, error) {
	nu, err := d.u()
	if err != nil {
		return nil, err
	}
	if nu < 2 || nu > maxNodes {
		return nil, d.fail("node count %d outside [2,%d]", nu, maxNodes)
	}
	n := int(nu)
	if n > d.remaining() {
		return nil, d.fail("node count %d exceeds remaining input", n)
	}
	st := &core.SchemeState{Kind: kind, Names: make([]int32, n)}
	for v := 0; v < n; v++ {
		nm, err := d.u()
		if err != nil {
			return nil, err
		}
		if nm >= uint64(n) {
			return nil, d.fail("name %d outside [0,%d)", nm, n)
		}
		st.Names[v] = int32(nm)
	}
	if st.Graph, err = d.graph(n); err != nil {
		return nil, err
	}
	k, err := d.u()
	if err != nil {
		return nil, err
	}
	lv, err := d.u()
	if err != nil {
		return nil, err
	}
	if k > uint64(n) || lv > uint64(maxNodes) {
		return nil, d.fail("implausible parameters k=%d levels=%d", k, lv)
	}
	st.K, st.Levels = int(k), int(lv)
	if st.ViaSource, err = d.b(); err != nil {
		return nil, err
	}
	if st.DirectReturn, err = d.b(); err != nil {
		return nil, err
	}
	return st, nil
}

// --- per-node sections ---

func (e *encoder) local(ls *core.LocalState) {
	switch {
	case ls.S6 != nil:
		e.encodeS6Local(ls.S6)
	case ls.Ex != nil:
		e.encodeExLocal(ls.Ex)
	case ls.Poly != nil:
		e.encodePolyLocal(ls.Poly)
	case ls.RTZ != nil:
		e.encodeRTZLocal(ls.RTZ)
	case ls.Hop != nil:
		e.encodeHopLocal(ls.Hop)
	}
}

func decodeLocal(d *decoder, kind core.Kind, node graph.NodeID) (*core.LocalState, error) {
	ls := &core.LocalState{Node: node}
	var err error
	switch kind {
	case core.KindStretchSix:
		ls.S6, err = d.decodeS6Local()
	case core.KindExStretch:
		ls.Ex, err = d.decodeExLocal()
	case core.KindPolynomial:
		ls.Poly, err = d.decodePolyLocal()
	case core.KindRTZ:
		ls.RTZ, err = d.decodeRTZLocal()
	case core.KindHop:
		ls.Hop, err = d.decodeHopLocal()
	default:
		return nil, d.fail("unknown scheme kind %d", uint8(kind))
	}
	if err != nil {
		return nil, err
	}
	return ls, nil
}

func (e *encoder) encodeRTZTable(t *core.RTZTableLocal) {
	e.u(uint64(len(t.InPorts)))
	for _, p := range t.InPorts {
		e.i(int64(p))
	}
	for _, s := range t.TreeStates {
		e.treeState(s)
	}
	e.u(uint64(len(t.Direct)))
	for _, dd := range t.Direct {
		e.i(int64(dd.Dst))
		e.i(int64(dd.Port))
	}
}

func (d *decoder) decodeRTZTable() (core.RTZTableLocal, error) {
	var t core.RTZTableLocal
	centers, err := d.count(4) // 1 byte port + >= 3 bytes state
	if err != nil {
		return t, err
	}
	if centers > 0 {
		t.InPorts = make([]graph.PortID, centers)
		t.TreeStates = make([]tree.State, centers)
		for i := range t.InPorts {
			if t.InPorts[i], err = d.i32(); err != nil {
				return t, err
			}
		}
		for i := range t.TreeStates {
			if t.TreeStates[i], err = d.treeState(); err != nil {
				return t, err
			}
		}
	}
	nd, err := d.count(2)
	if err != nil {
		return t, err
	}
	if nd > 0 {
		t.Direct = make([]core.RTZDirect, nd)
		for i := range t.Direct {
			if t.Direct[i].Dst, err = d.i32(); err != nil {
				return t, err
			}
			if t.Direct[i].Port, err = d.i32(); err != nil {
				return t, err
			}
		}
	}
	return t, nil
}

func (e *encoder) encodeS6Local(l *core.S6Local) {
	e.i(int64(l.SelfName))
	e.rtzLabel(l.OwnLabel)
	// Entries are sorted by name (Decomposer's canonical order), so names
	// are delta-encoded: dictionary gaps are small regardless of n.
	e.u(uint64(len(l.Entries)))
	prev := int64(0)
	for i, en := range l.Entries {
		if i == 0 {
			e.i(int64(en.Name))
		} else {
			e.i(int64(en.Name) - prev)
		}
		prev = int64(en.Name)
		e.rtzLabel(en.Label)
	}
	e.u(uint64(len(l.BlockHolder)))
	for _, h := range l.BlockHolder {
		e.i(int64(h))
	}
	e.u(uint64(l.NeighborEntries))
	e.encodeRTZTable(&l.Tab3)
}

func (d *decoder) decodeS6Local() (*core.S6Local, error) {
	l := &core.S6Local{}
	var err error
	if l.SelfName, err = d.i32(); err != nil {
		return nil, err
	}
	if l.OwnLabel, err = d.rtzLabel(); err != nil {
		return nil, err
	}
	ne, err := d.count(5)
	if err != nil {
		return nil, err
	}
	if ne > 0 {
		l.Entries = make([]core.S6Entry, ne)
		prev := int64(0)
		for i := range l.Entries {
			dv, err := d.i()
			if err != nil {
				return nil, err
			}
			if i > 0 {
				dv += prev
			}
			if dv < -(1<<31) || dv >= 1<<31 {
				return nil, d.fail("entry name %d outside int32", dv)
			}
			l.Entries[i].Name = int32(dv)
			prev = dv
			if l.Entries[i].Label, err = d.rtzLabel(); err != nil {
				return nil, err
			}
		}
	}
	nb, err := d.count(1)
	if err != nil {
		return nil, err
	}
	l.BlockHolder = make([]int32, nb)
	for i := range l.BlockHolder {
		if l.BlockHolder[i], err = d.i32(); err != nil {
			return nil, err
		}
	}
	nn, err := d.u()
	if err != nil {
		return nil, err
	}
	if nn > maxNodes {
		return nil, d.fail("implausible neighborhood size %d", nn)
	}
	l.NeighborEntries = int32(nn)
	if l.Tab3, err = d.decodeRTZTable(); err != nil {
		return nil, err
	}
	return l, nil
}

func (e *encoder) encodeExLocal(l *core.ExLocal) {
	e.i(int64(l.SelfName))
	e.u(uint64(len(l.Neighbors)))
	for _, nb := range l.Neighbors {
		e.i(int64(nb.Name))
		e.handshake(nb.HS)
	}
	e.u(uint64(len(l.Dict)))
	for _, de := range l.Dict {
		e.i(int64(de.Level))
		e.i(int64(de.Prefix))
		e.i(int64(de.Tau))
		e.i(int64(de.TargetName))
		e.handshake(de.HS)
	}
	e.u(uint64(len(l.Full)))
	for _, fe := range l.Full {
		e.i(int64(fe.Name))
		e.handshake(fe.HS)
	}
	e.u(uint64(len(l.Global)))
	for _, gl := range l.Global {
		e.treeRef(gl.Ref)
		e.treeLabel(gl.Label)
	}
	e.u(uint64(len(l.HopTab)))
	for _, he := range l.HopTab {
		e.treeRef(he.Ref)
		e.treeState(he.State)
		e.i(int64(he.InPort))
		e.b(he.IsRoot)
	}
}

func (d *decoder) decodeExLocal() (*core.ExLocal, error) {
	l := &core.ExLocal{}
	var err error
	if l.SelfName, err = d.i32(); err != nil {
		return nil, err
	}
	nn, err := d.count(7)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nn; i++ {
		var nb core.ExNeighbor
		if nb.Name, err = d.i32(); err != nil {
			return nil, err
		}
		if nb.HS, err = d.handshake(); err != nil {
			return nil, err
		}
		l.Neighbors = append(l.Neighbors, nb)
	}
	ndict, err := d.count(10)
	if err != nil {
		return nil, err
	}
	for i := 0; i < ndict; i++ {
		var de core.ExDictLocal
		lv, err := d.i32()
		if err != nil {
			return nil, err
		}
		if lv < -128 || lv > 127 {
			return nil, d.fail("dictionary level %d outside int8", lv)
		}
		de.Level = int8(lv)
		if de.Prefix, err = d.i32(); err != nil {
			return nil, err
		}
		if de.Tau, err = d.i32(); err != nil {
			return nil, err
		}
		if de.TargetName, err = d.i32(); err != nil {
			return nil, err
		}
		if de.HS, err = d.handshake(); err != nil {
			return nil, err
		}
		l.Dict = append(l.Dict, de)
	}
	nf, err := d.count(7)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nf; i++ {
		var fe core.ExNeighbor
		if fe.Name, err = d.i32(); err != nil {
			return nil, err
		}
		if fe.HS, err = d.handshake(); err != nil {
			return nil, err
		}
		l.Full = append(l.Full, fe)
	}
	ng, err := d.count(3)
	if err != nil {
		return nil, err
	}
	for i := 0; i < ng; i++ {
		var gl core.ExGlobal
		if gl.Ref, err = d.treeRef(); err != nil {
			return nil, err
		}
		if gl.Label, err = d.treeLabel(); err != nil {
			return nil, err
		}
		l.Global = append(l.Global, gl)
	}
	nh, err := d.count(7)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nh; i++ {
		var he core.HopEntryLocal
		if he.Ref, err = d.treeRef(); err != nil {
			return nil, err
		}
		if he.State, err = d.treeState(); err != nil {
			return nil, err
		}
		if he.InPort, err = d.i32(); err != nil {
			return nil, err
		}
		if he.IsRoot, err = d.b(); err != nil {
			return nil, err
		}
		l.HopTab = append(l.HopTab, he)
	}
	return l, nil
}

func (e *encoder) encodePolyLocal(l *core.PolyLocal) {
	e.i(int64(l.SelfName))
	e.u(uint64(len(l.Home)))
	for _, r := range l.Home {
		e.treeRef(r)
	}
	e.u(uint64(len(l.Trees)))
	for _, t := range l.Trees {
		e.treeRef(t.Ref)
		e.treeState(t.State)
		e.i(int64(t.InPort))
		e.b(t.IsRoot)
		e.treeLabel(t.OwnLabel)
		e.u(uint64(len(t.Dict)))
		for _, de := range t.Dict {
			e.i(int64(de.J))
			e.i(int64(de.Tau))
			e.i(int64(de.Name))
			e.treeLabel(de.Label)
		}
	}
}

func (d *decoder) decodePolyLocal() (*core.PolyLocal, error) {
	l := &core.PolyLocal{}
	var err error
	if l.SelfName, err = d.i32(); err != nil {
		return nil, err
	}
	nh, err := d.count(2)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nh; i++ {
		r, err := d.treeRef()
		if err != nil {
			return nil, err
		}
		l.Home = append(l.Home, r)
	}
	nt, err := d.count(10)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nt; i++ {
		var t core.PolyTreeLocal
		if t.Ref, err = d.treeRef(); err != nil {
			return nil, err
		}
		if t.State, err = d.treeState(); err != nil {
			return nil, err
		}
		if t.InPort, err = d.i32(); err != nil {
			return nil, err
		}
		if t.IsRoot, err = d.b(); err != nil {
			return nil, err
		}
		if t.OwnLabel, err = d.treeLabel(); err != nil {
			return nil, err
		}
		ndict, err := d.count(5)
		if err != nil {
			return nil, err
		}
		for j := 0; j < ndict; j++ {
			var de core.PolyDictLocal
			jj, err := d.i32()
			if err != nil {
				return nil, err
			}
			if jj < -128 || jj > 127 {
				return nil, d.fail("dictionary level %d outside int8", jj)
			}
			de.J = int8(jj)
			if de.Tau, err = d.i32(); err != nil {
				return nil, err
			}
			if de.Name, err = d.i32(); err != nil {
				return nil, err
			}
			if de.Label, err = d.treeLabel(); err != nil {
				return nil, err
			}
			t.Dict = append(t.Dict, de)
		}
		l.Trees = append(l.Trees, t)
	}
	return l, nil
}

func (e *encoder) encodeRTZLocal(l *core.RTZLocal) {
	e.rtzLabel(l.SelfLabel)
	e.encodeRTZTable(&l.Table)
}

func (d *decoder) decodeRTZLocal() (*core.RTZLocal, error) {
	l := &core.RTZLocal{}
	var err error
	if l.SelfLabel, err = d.rtzLabel(); err != nil {
		return nil, err
	}
	if l.Table, err = d.decodeRTZTable(); err != nil {
		return nil, err
	}
	return l, nil
}

func (e *encoder) encodeHopLocal(l *core.HopLocal) {
	e.u(uint64(len(l.Members)))
	for _, m := range l.Members {
		e.treeRef(m.Ref)
		e.treeState(m.State)
		e.i(int64(m.InPort))
		e.b(m.IsRoot)
		e.treeLabel(m.OwnLabel)
		e.i(int64(m.DistTo))
		e.i(int64(m.DistFrom))
	}
}

func (d *decoder) decodeHopLocal() (*core.HopLocal, error) {
	l := &core.HopLocal{}
	nm, err := d.count(11)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nm; i++ {
		var m core.HopMember
		if m.Ref, err = d.treeRef(); err != nil {
			return nil, err
		}
		if m.State, err = d.treeState(); err != nil {
			return nil, err
		}
		if m.InPort, err = d.i32(); err != nil {
			return nil, err
		}
		if m.IsRoot, err = d.b(); err != nil {
			return nil, err
		}
		if m.OwnLabel, err = d.treeLabel(); err != nil {
			return nil, err
		}
		dt, err := d.i()
		if err != nil {
			return nil, err
		}
		df, err := d.i()
		if err != nil {
			return nil, err
		}
		if dt < 0 || df < 0 || dt >= graph.Inf || df >= graph.Inf {
			return nil, d.fail("tree distance outside [0, Inf)")
		}
		m.DistTo, m.DistFrom = graph.Dist(dt), graph.Dist(df)
		l.Members = append(l.Members, m)
	}
	// Memberships appear in sorted (level, index) order; the assembler
	// relies on the monolithic membership order for handshake
	// tie-breaking.
	for i := 1; i < len(l.Members); i++ {
		a, b := l.Members[i-1].Ref, l.Members[i].Ref
		if !(a.Level < b.Level || (a.Level == b.Level && a.Index < b.Index)) {
			return nil, d.fail("membership list not sorted by (level, index)")
		}
	}
	return l, nil
}

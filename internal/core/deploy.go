package core

import (
	"fmt"

	"rtroute/internal/codec"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/parallel"
	"rtroute/internal/sim"
)

// This file is the per-node deployment layer: every built plane encodes
// one section per node — only that node's tables, in canonical order, by
// the scheme's own section codec beside its tables — and Restore decodes
// them, one node at a time, into a Deployment that forwards purely from
// the addressed node's state plus the arriving header. Package wire
// frames the sections into snapshots; the golden-file tests lock the
// bytes.

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

// SchemeState is a plane's O(1) shared parameters: the network fabric,
// the naming, and what every node's tables are read against ("global
// knowledge" in the paper's sense, like n itself). It is the snapshot's
// shared section; the per-node sections come from Sections.
type SchemeState struct {
	Kind  Kind
	Graph *graph.Graph
	Names []int32 // Names[v] = TINN name of node v

	// The base-q name universe is re-derived from (n, K), never stored.
	K            int  // exstretch / poly tradeoff parameter
	Levels       int  // poly: scale-ladder length
	ViaSource    bool // stretch6 §2.2 variant
	DirectReturn bool // exstretch §3.5 variant
}

// Sections returns a plane's shared parameters and its section encoder:
// encode(e, v) appends node v's section — exactly the tables forwarding
// at v reads, in canonical order, so equal tables encode to equal bytes
// — to e. It accepts the three TINN schemes, the two core substrate
// planes and a Deployment. encode only reads the plane and may be called
// concurrently; what every section shares (StretchSix's addresses,
// ExStretch's labels) is encoded once per call, here.
func Sections(p sim.Plane) (*SchemeState, func(e *codec.Encoder, v graph.NodeID), error) {
	switch s := p.(type) {
	case *StretchSix:
		return &SchemeState{Kind: KindStretchSix, Graph: s.g, Names: s.perm.Names, ViaSource: s.viaSource}, s.sectionEncoder(), nil
	case *ExStretch:
		return &SchemeState{Kind: KindExStretch, Graph: s.g, Names: s.perm.Names, K: s.k, DirectReturn: s.directReturn}, s.sectionEncoder(), nil
	case *PolynomialStretch:
		return &SchemeState{Kind: KindPolynomial, Graph: s.g, Names: s.perm.Names, K: s.k, Levels: s.levels}, s.encodeSection, nil
	case *RTZPlane:
		return &SchemeState{Kind: KindRTZ, Graph: s.sub.Graph(), Names: s.perm.Names}, s.encodeSection, nil
	case *HopPlane:
		return &SchemeState{Kind: KindHop, Graph: s.g, Names: s.perm.Names}, s.encodeSection, nil
	case *Deployment:
		return Sections(s.scheme)
	default:
		return nil, nil, fmt.Errorf("core: no sections for %T", p)
	}
}

// restorer decodes one kind's sections into a plane: node reads node v's
// section straight into its tables, for v = 0, 1, ..., n-1 in turn, and
// finish returns the plane.
type restorer struct {
	node   func(v graph.NodeID, d *codec.Decoder) error
	finish func() (Scheme, error)
}

// Restore builds a Deployment, route-identical to the plane the sections
// were encoded from, pulling node v's section from section(v) for v = 0,
// 1, ..., n-1 in turn. Each section is decoded into its node's tables,
// which keep none of its bytes, and must be consumed exactly. Every
// section is held to the builder's invariants, so one the tables could
// not give back is refused, naming the node. An error from section ends
// it.
func Restore(st *SchemeState, section func(v graph.NodeID) ([]byte, error)) (*Deployment, error) {
	if st.Graph == nil {
		return nil, fmt.Errorf("core: restore: nil graph")
	}
	n := st.Graph.N()
	if n < 2 {
		return nil, fmt.Errorf("core: restore: need at least 2 nodes, got %d", n)
	}
	perm, err := names.NewPermutation(st.Names)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	var r restorer
	switch st.Kind {
	case KindStretchSix:
		r = restoreS6(st, perm)
	case KindExStretch:
		r, err = restoreEx(st, perm)
	case KindPolynomial:
		r, err = restorePoly(st, perm)
	case KindRTZ:
		r = restoreRTZ(st, perm)
	case KindHop:
		r = restoreHop(st, perm)
	default:
		err = fmt.Errorf("unknown kind %v", st.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	for v := graph.NodeID(0); int(v) < n; v++ {
		sec, err := section(v)
		if err != nil {
			return nil, err
		}
		d := &codec.Decoder{Data: sec}
		if err = r.node(v, d); err == nil {
			err = d.Done()
		}
		if err != nil {
			return nil, fmt.Errorf("core: restore: node %d: %w", v, err)
		}
	}
	scheme, err := r.finish()
	if err != nil {
		return nil, err
	}
	return NewDeployment(scheme, st.Kind), nil
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

// Deployment is a scheme restored from per-node sections. It
// implements sim.Plane — the sequential tracer and the concurrent traffic
// engine drive it exactly like a monolithic scheme — and every Forward is
// the paper's F(table(x), header(P)): the restored scheme reads only
// the addressed node's table and the arriving header. Header injection
// (NewHeader/BeginReturn) delegates to the restored scheme, which holds
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

// NewDeployment wraps a built or restored scheme.
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

// Deploy restores a built plane as a Deployment through its own section
// codec — the in-process equivalent of a marshal/unmarshal roundtrip,
// certifying that per-node state suffices. Sections are encoded a window
// at a time, 32 nodes per core, and decoded in node order, so one window
// of section bytes is live beside the tables.
func Deploy(p sim.Plane) (*Deployment, error) {
	st, encode, err := Sections(p)
	if err != nil {
		return nil, err
	}
	n := st.Graph.N()
	workers := parallel.Workers(n, 0)
	encs := make([]codec.Encoder, workers)
	type span struct{ worker, off, end int }
	spans := make([]span, workers*32)
	lo := -len(spans)
	return Restore(st, func(v graph.NodeID) ([]byte, error) {
		if int(v) >= lo+len(spans) {
			lo = int(v)
			for w := range encs {
				encs[w].Buf = encs[w].Buf[:0]
			}
			_ = parallel.ForEachWorker(min(len(spans), n-lo), workers, func(w, i int) error { // never fails
				e := &encs[w]
				off := len(e.Buf)
				encode(e, graph.NodeID(lo+i))
				spans[i] = span{worker: w, off: off, end: len(e.Buf)}
				return nil
			})
		}
		sp := spans[int(v)-lo]
		return encs[sp.worker].Buf[sp.off:sp.end], nil
	})
}

// Kind returns the deployed scheme kind.
func (d *Deployment) Kind() Kind { return d.kind }

// Scheme returns the restored scheme the deployment forwards with.
func (d *Deployment) Scheme() Scheme { return d.scheme }

// Flatten returns the restored scheme as a serving plane: Forward(v, h)
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
// Theorem 6/11 space bound — or -1 when the deployment was restored
// in-process by Deploy rather than from a snapshot.
func (d *Deployment) EncodedSize(v graph.NodeID) int {
	if d.nodeBytes == nil {
		return -1
	}
	return d.nodeBytes[v]
}

// Forward implements sim.Forwarder: the restored scheme's forwarding
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

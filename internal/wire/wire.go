// Package wire is the versioned binary codec for routing schemes and
// cluster frames: the layer that turns the in-memory per-node
// decomposition (core.LocalState / core.SchemeState) into real bytes, so
// schemes survive snapshot/restore across processes, packets cross
// shards as flight frames, and the paper's Theorem 6/11 space bounds are
// certified in encoded bytes per node rather than abstract "words".
//
// Every blob starts with a fixed envelope:
//
//	offset 0: magic "RTWF" (4 bytes)
//	offset 4: format version (uvarint, currently 2)
//	then:     blob type (1 byte: 1 = scheme, 3 = frame; 2 is retired)
//	then:     scheme kind (1 byte, core.Kind)
//
// All integers are varint-encoded (unsigned counts as uvarint, signed
// values zigzag), so small tables cost small bytes — the encoding the
// space report measures. Scheme blobs carry the network fabric, the
// naming, the O(1) shared parameters, and then one length-prefixed
// section per node holding exactly that node's LocalState; the section
// lengths are the per-node encoded sizes the eval space report and
// `rtroute -sizes` print.
//
// Decoding is strict: every read is bounds-checked, counts are validated
// against the remaining input before any allocation (a hostile blob can
// never make the decoder allocate more than O(len(input))), and trailing
// garbage is rejected. Arbitrary bytes must produce an error, never a
// panic — the fuzz tests lock this.
//
// Version policy: the version is bumped whenever the payload layout
// changes incompatibly; decoders reject versions they do not know. The
// golden-file tests pin the current version's exact bytes, so an
// accidental layout change fails CI rather than silently orphaning
// saved snapshots.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"rtroute/internal/core"
	"rtroute/internal/cover"
	"rtroute/internal/graph"
	"rtroute/internal/rtz"
	"rtroute/internal/tree"
)

// Version is the current wire-format version. Version 2 added the
// roundtrip tag to packet/inject/done frames and the fixed-layout
// flight-frame and inject-batch kinds.
const Version = 2

// magic opens every blob.
var magic = [4]byte{'R', 'T', 'W', 'F'}

// Blob type 2 is retired: it was the self-contained header packet,
// which lost its only carrier with frame kind 1. Both decoders reject it.
const (
	blobScheme byte = 1
	blobFrame  byte = 3
)

// ErrVersion is wrapped by every decode failure caused by a format
// version this build does not read, so tools can distinguish "snapshot
// from a different release" from a corrupt blob and say so.
var ErrVersion = errors.New("wire: unsupported format version")

// maxNodes caps the node count a scheme blob may declare, far above any
// graph this repository can build but low enough to bound hostile
// allocation.
const maxNodes = 1 << 24

// --- encoder ---

type encoder struct {
	buf []byte
}

func (e *encoder) envelope(blobType byte, kind core.Kind) {
	e.buf = append(e.buf, magic[:]...)
	e.u(Version)
	e.buf = append(e.buf, blobType, byte(kind))
}

// u appends an unsigned varint. Header fields are overwhelmingly tiny
// (names, ports, DFS-time deltas), so the single-byte case is inlined;
// the slow path is bit-identical binary.AppendUvarint.
func (e *encoder) u(v uint64) {
	if v < 0x80 {
		e.buf = append(e.buf, byte(v))
		return
	}
	e.buf = binary.AppendUvarint(e.buf, v)
}

// i appends a zigzag-encoded signed varint (the explicit zigzag is
// byte-identical to binary.AppendVarint).
func (e *encoder) i(v int64) { e.u(uint64(v<<1) ^ uint64(v>>63)) }

// b appends a bool byte.
func (e *encoder) b(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// byte1 appends one raw byte.
func (e *encoder) byte1(v byte) { e.buf = append(e.buf, v) }

// --- decoder ---

type decoder struct {
	data []byte
	off  int
	// hd, when non-nil, supplies reusable arena storage for decoded
	// variable-size sections (set for flight sections, nil for snapshots).
	hd *HeaderDecoder
}

func (d *decoder) fail(format string, args ...any) error {
	return fmt.Errorf("wire: offset %d: %s", d.off, fmt.Sprintf(format, args...))
}

func (d *decoder) remaining() int { return len(d.data) - d.off }

func (d *decoder) u() (uint64, error) {
	// Single-byte fast path; the slow path reads the identical format.
	if d.off < len(d.data) {
		if b := d.data[d.off]; b < 0x80 {
			d.off++
			return uint64(b), nil
		}
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, d.fail("truncated or oversized uvarint")
	}
	d.off += n
	return v, nil
}

func (d *decoder) i() (int64, error) {
	ux, err := d.u()
	if err != nil {
		return 0, d.fail("truncated or oversized varint")
	}
	return int64(ux>>1) ^ -int64(ux&1), nil
}

// i32 decodes a signed varint that must fit int32.
func (d *decoder) i32() (int32, error) {
	v, err := d.i()
	if err != nil {
		return 0, err
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, d.fail("value %d outside int32", v)
	}
	return int32(v), nil
}

func (d *decoder) b() (bool, error) {
	v, err := d.byte1()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, d.fail("invalid bool byte %d", v)
	}
}

func (d *decoder) byte1() (byte, error) {
	if d.off >= len(d.data) {
		return 0, d.fail("truncated")
	}
	v := d.data[d.off]
	d.off++
	return v, nil
}

// count decodes an element count and validates it against the remaining
// input: each element occupies at least minBytes bytes, so a hostile
// count can never drive an allocation beyond O(len(input)).
func (d *decoder) count(minBytes int) (int, error) {
	v, err := d.u()
	if err != nil {
		return 0, err
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if v > uint64(d.remaining()/minBytes) {
		return 0, d.fail("count %d exceeds remaining input (%d bytes, >= %d per element)",
			v, d.remaining(), minBytes)
	}
	return int(v), nil
}

// preamble reads magic + version, returning the blob's version before
// enforcing it (PeekSnapshot reports foreign versions, envelope rejects
// them).
func (d *decoder) preamble() (uint64, error) {
	if d.remaining() < len(magic) {
		return 0, d.fail("blob shorter than magic")
	}
	for i, c := range magic {
		if d.data[d.off+i] != c {
			return 0, d.fail("bad magic %q", d.data[d.off:d.off+len(magic)])
		}
	}
	d.off += len(magic)
	return d.u()
}

func (d *decoder) envelope(wantType byte) (core.Kind, error) {
	ver, err := d.preamble()
	if err != nil {
		return 0, err
	}
	if ver != Version {
		return 0, fmt.Errorf("wire: offset %d: %w: blob has version %d, this build reads %d",
			d.off, ErrVersion, ver, Version)
	}
	bt, err := d.byte1()
	if err != nil {
		return 0, err
	}
	if bt != wantType {
		return 0, d.fail("blob type %d, want %d", bt, wantType)
	}
	k, err := d.byte1()
	if err != nil {
		return 0, err
	}
	return core.Kind(k), nil
}

// done rejects trailing garbage.
func (d *decoder) done() error {
	if d.remaining() != 0 {
		return d.fail("%d trailing bytes", d.remaining())
	}
	return nil
}

// --- shared sub-structure codecs ---

// treeLabel encodes a tree address with its structure exploited: light
// hops carry strictly ascending DFS entry times down the root path, so
// every hop after the first stores only the (small) delta — the widths
// that would otherwise grow with log n collapse to a byte or two.
func (e *encoder) treeLabel(l tree.Label) {
	e.i(int64(l.Tin))
	e.lightHops(l.Light)
}

// lightHops is the root-path blob shared by treeLabel and the flight
// frame's fixed sections (which hoist Tin into their fixed fields).
func (e *encoder) lightHops(light []tree.LightHop) {
	e.u(uint64(len(light)))
	prev := int64(0)
	for i, h := range light {
		if i == 0 {
			e.i(int64(h.BranchTin))
		} else {
			e.i(int64(h.BranchTin) - prev)
		}
		prev = int64(h.BranchTin)
		e.i(int64(h.Port))
	}
}

func (d *decoder) treeLabel() (tree.Label, error) {
	var l tree.Label
	tin, err := d.i32()
	if err != nil {
		return l, err
	}
	l.Tin = tin
	if l.Light, err = d.lightHops(); err != nil {
		return l, err
	}
	return l, nil
}

func (d *decoder) lightHops() ([]tree.LightHop, error) {
	c, err := d.count(2)
	if err != nil {
		return nil, err
	}
	if c == 0 {
		return nil, nil
	}
	var light []tree.LightHop
	if d.hd != nil {
		light = d.hd.light.take(c)
	} else {
		light = make([]tree.LightHop, c)
	}
	prev := int64(0)
	for i := range light {
		dv, err := d.i()
		if err != nil {
			return nil, err
		}
		if i > 0 {
			dv += prev
		}
		if dv < math.MinInt32 || dv > math.MaxInt32 {
			return nil, d.fail("branch tin %d outside int32", dv)
		}
		light[i].BranchTin = int32(dv)
		prev = dv
		if light[i].Port, err = d.i32(); err != nil {
			return nil, err
		}
	}
	return light, nil
}

// treeState encodes the O(1) per-tree node state with the DFS-interval
// structure exploited: Tout >= Tin always (leaves store the common 0
// delta in one byte), and the heavy child's interval — all zeros on
// leaves — is encoded relative to the parent's only when present.
func (e *encoder) treeState(s tree.State) {
	e.i(int64(s.Tin))
	e.u(uint64(int64(s.Tout) - int64(s.Tin)))
	e.i(int64(s.HeavyPort))
	if s.HeavyPort >= 0 {
		e.i(int64(s.HeavyTin) - int64(s.Tin))
		e.u(uint64(int64(s.HeavyTout) - int64(s.HeavyTin)))
	}
}

func (d *decoder) treeState() (tree.State, error) {
	var s tree.State
	var err error
	if s.Tin, err = d.i32(); err != nil {
		return s, err
	}
	span, err := d.u()
	if err != nil {
		return s, err
	}
	tout := int64(s.Tin) + int64(span)
	if tout > math.MaxInt32 {
		return s, d.fail("tout %d outside int32", tout)
	}
	s.Tout = int32(tout)
	if s.HeavyPort, err = d.i32(); err != nil {
		return s, err
	}
	if s.HeavyPort >= 0 {
		dv, err := d.i()
		if err != nil {
			return s, err
		}
		htin := int64(s.Tin) + dv
		if htin < math.MinInt32 || htin > math.MaxInt32 {
			return s, d.fail("heavy tin %d outside int32", htin)
		}
		s.HeavyTin = int32(htin)
		hspan, err := d.u()
		if err != nil {
			return s, err
		}
		htout := htin + int64(hspan)
		if htout > math.MaxInt32 {
			return s, d.fail("heavy tout %d outside int32", htout)
		}
		s.HeavyTout = int32(htout)
	}
	return s, nil
}

func (e *encoder) rtzLabel(l rtz.Label) {
	e.i(int64(l.Node))
	e.i(int64(l.CenterIdx))
	e.i(int64(l.Center))
	e.treeLabel(l.TreeLabel)
}

func (d *decoder) rtzLabel() (rtz.Label, error) {
	var l rtz.Label
	var err error
	if l.Node, err = d.i32(); err != nil {
		return l, err
	}
	if l.CenterIdx, err = d.i32(); err != nil {
		return l, err
	}
	if l.Center, err = d.i32(); err != nil {
		return l, err
	}
	if l.TreeLabel, err = d.treeLabel(); err != nil {
		return l, err
	}
	return l, nil
}

func (e *encoder) treeRef(r cover.TreeRef) {
	e.i(int64(r.Level))
	e.i(int64(r.Index))
}

func (d *decoder) treeRef() (cover.TreeRef, error) {
	var r cover.TreeRef
	var err error
	if r.Level, err = d.i32(); err != nil {
		return r, err
	}
	if r.Index, err = d.i32(); err != nil {
		return r, err
	}
	return r, nil
}

func (e *encoder) handshake(hs rtz.Handshake) {
	e.treeRef(hs.Ref)
	e.treeLabel(hs.ULabel)
	e.treeLabel(hs.VLabel)
}

func (d *decoder) handshake() (rtz.Handshake, error) {
	var hs rtz.Handshake
	var err error
	if hs.Ref, err = d.treeRef(); err != nil {
		return hs, err
	}
	if hs.ULabel, err = d.treeLabel(); err != nil {
		return hs, err
	}
	if hs.VLabel, err = d.treeLabel(); err != nil {
		return hs, err
	}
	return hs, nil
}

func (e *encoder) hopLeg(h rtz.HopHeader) {
	e.treeRef(h.Ref)
	e.treeLabel(h.Target)
	e.b(h.Descending)
}

func (d *decoder) hopLeg() (rtz.HopHeader, error) {
	var h rtz.HopHeader
	var err error
	if h.Ref, err = d.treeRef(); err != nil {
		return h, err
	}
	if h.Target, err = d.treeLabel(); err != nil {
		return h, err
	}
	if h.Descending, err = d.b(); err != nil {
		return h, err
	}
	return h, nil
}

// --- graph codec ---

func (e *encoder) graph(g *graph.Graph) {
	n := g.N()
	for u := 0; u < n; u++ {
		out := g.Out(graph.NodeID(u))
		e.u(uint64(len(out)))
		for _, ed := range out {
			e.u(uint64(ed.To))
			e.u(uint64(ed.Weight))
			e.i(int64(ed.Port))
		}
	}
}

func (d *decoder) graph(n int) (*graph.Graph, error) {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		deg, err := d.count(3)
		if err != nil {
			return nil, err
		}
		for i := 0; i < deg; i++ {
			to, err := d.u()
			if err != nil {
				return nil, err
			}
			if to >= uint64(n) {
				return nil, d.fail("edge head %d outside [0,%d)", to, n)
			}
			w, err := d.u()
			if err != nil {
				return nil, err
			}
			if w > uint64(graph.Inf) {
				return nil, d.fail("edge weight %d exceeds Inf", w)
			}
			port, err := d.i32()
			if err != nil {
				return nil, err
			}
			if err := g.AddEdgePort(graph.NodeID(u), graph.NodeID(to), graph.Dist(w), port); err != nil {
				return nil, d.fail("%v", err)
			}
		}
	}
	if err := g.ValidatePorts(); err != nil {
		return nil, d.fail("%v", err)
	}
	return g, nil
}

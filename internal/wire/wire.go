// Package wire is the versioned binary format of routing schemes and
// cluster frames. It frames a scheme's shared parameters
// (core.SchemeState) and each node's section (core.Sections) into a
// snapshot, so schemes survive snapshot/restore across processes and the
// paper's Theorem 6/11 space bounds are certified in encoded bytes per
// node rather than abstract "words"; and it carries packets across
// shards as flight frames. The varint primitives and the tree, rtz and
// cover value codecs it shares with core live in internal/codec.
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
// section per node holding exactly that node's tables; the section
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
	"errors"
	"fmt"

	"rtroute/internal/codec"
	"rtroute/internal/core"
	"rtroute/internal/graph"
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

// encoder and decoder are the codec primitives plus the envelope, the
// graph and the frame codecs this package adds.
type encoder struct{ codec.Encoder }

type decoder struct {
	codec.Decoder
	// hd, when non-nil, supplies the arenas of a flight section's
	// waypoint stacks and global labels.
	hd *HeaderDecoder
}

func (e *encoder) envelope(blobType byte, kind core.Kind) {
	e.Buf = append(e.Buf, magic[:]...)
	e.U(Version)
	e.Buf = append(e.Buf, blobType, byte(kind))
}

// preamble reads magic + version, returning the blob's version before
// enforcing it (PeekSnapshot reports foreign versions, envelope rejects
// them).
func (d *decoder) preamble() (uint64, error) {
	if d.Remaining() < len(magic) {
		return 0, d.Fail("blob shorter than magic")
	}
	for i, c := range magic {
		if d.Data[d.Off+i] != c {
			return 0, d.Fail("bad magic %q", d.Data[d.Off:d.Off+len(magic)])
		}
	}
	d.Off += len(magic)
	return d.U()
}

func (d *decoder) envelope(wantType byte) (core.Kind, error) {
	ver, err := d.preamble()
	if err != nil {
		return 0, err
	}
	if ver != Version {
		return 0, fmt.Errorf("wire: offset %d: %w: blob has version %d, this build reads %d",
			d.Off, ErrVersion, ver, Version)
	}
	bt, err := d.Byte1()
	if err != nil {
		return 0, err
	}
	if bt != wantType {
		return 0, d.Fail("blob type %d, want %d", bt, wantType)
	}
	k, err := d.Byte1()
	if err != nil {
		return 0, err
	}
	return core.Kind(k), nil
}

// --- graph codec ---

func (e *encoder) graph(g *graph.Graph) {
	n := g.N()
	for u := 0; u < n; u++ {
		out := g.Out(graph.NodeID(u))
		e.U(uint64(len(out)))
		for _, ed := range out {
			e.U(uint64(ed.To))
			e.U(uint64(ed.Weight))
			e.I(int64(ed.Port))
		}
	}
}

func (d *decoder) graph(n int) (*graph.Graph, error) {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		deg, err := d.Count(3)
		if err != nil {
			return nil, err
		}
		for i := 0; i < deg; i++ {
			to, err := d.U()
			if err != nil {
				return nil, err
			}
			if to >= uint64(n) {
				return nil, d.Fail("edge head %d outside [0,%d)", to, n)
			}
			w, err := d.U()
			if err != nil {
				return nil, err
			}
			if w > uint64(graph.Inf) {
				return nil, d.Fail("edge weight %d exceeds Inf", w)
			}
			port, err := d.I32()
			if err != nil {
				return nil, err
			}
			if err := g.AddEdgePort(graph.NodeID(u), graph.NodeID(to), graph.Dist(w), port); err != nil {
				return nil, d.Fail("%v", err)
			}
		}
	}
	if err := g.ValidatePorts(); err != nil {
		return nil, d.Fail("%v", err)
	}
	return g, nil
}

package wire

import (
	"fmt"

	"rtroute/internal/core"
	"rtroute/internal/sim"
	"rtroute/internal/tree"
)

// MarshalHeader encodes a packet header as a self-contained byte packet:
// envelope plus the kind-specific field layout. A header decoded on
// another process forwards identically — the deployment route-identity
// tests drive roundtrips through marshal/unmarshal at every hop.
func MarshalHeader(h sim.Header) ([]byte, error) {
	e := &encoder{}
	if err := e.header(h); err != nil {
		return nil, err
	}
	return e.buf, nil
}

// header appends a self-contained header blob (envelope included).
func (e *encoder) header(h sim.Header) error {
	k, err := headerKind(h)
	if err != nil {
		return err
	}
	e.envelope(blobHeader, k)
	return e.headerBody(h)
}

func headerKind(h sim.Header) (core.Kind, error) {
	switch h.(type) {
	case *core.S6Header:
		return core.KindStretchSix, nil
	case *core.ExHeader:
		return core.KindExStretch, nil
	case *core.PolyHeader:
		return core.KindPolynomial, nil
	case *core.RTZHeader:
		return core.KindRTZ, nil
	case *core.HopHeader:
		return core.KindHop, nil
	default:
		return 0, fmt.Errorf("wire: cannot marshal %T header", h)
	}
}

func (e *encoder) headerBody(h sim.Header) error {
	switch hh := h.(type) {
	case *core.S6Header:
		e.byte1(byte(hh.Mode))
		e.i(int64(hh.DestName))
		e.i(int64(hh.SrcName))
		e.rtzLabel(hh.SrcLabel)
		e.i(int64(hh.DictName))
		e.byte1(byte(hh.Stage))
		e.rtzLabel(hh.Fetched)
		e.rtzHeader(hh.Leg)
		e.b(hh.LegSet)
	case *core.ExHeader:
		e.byte1(byte(hh.Mode))
		e.i(int64(hh.DestName))
		e.i(int64(hh.SrcName))
		e.i(int64(hh.Hop))
		e.i(int64(hh.NextWaypointName))
		e.u(uint64(len(hh.Stack)))
		for _, w := range hh.Stack {
			e.i(int64(w.Name))
			e.handshake(w.HS)
		}
		e.u(uint64(len(hh.Global)))
		for _, g := range hh.Global {
			e.treeRef(g.Ref)
			e.treeLabel(g.Label)
		}
		e.hopLeg(hh.Leg)
		e.b(hh.LegSet)
	case *core.PolyHeader:
		e.byte1(byte(hh.Mode))
		e.i(int64(hh.DestName))
		e.i(int64(hh.SrcName))
		e.i(int64(hh.Level))
		e.b(hh.Found)
		e.treeRef(hh.Ref)
		e.treeLabel(hh.SourceLabel)
		e.i(int64(hh.NextWaypointName))
		e.treeLabel(hh.Target)
		e.b(hh.Descending)
	case *core.RTZHeader:
		e.i(int64(hh.SrcName))
		e.i(int64(hh.DstName))
		e.rtzLabel(hh.SrcLabel)
		e.rtzHeader(hh.Leg)
	case *core.HopHeader:
		e.handshake(hh.HS)
		e.hopLeg(hh.Leg)
	default:
		return fmt.Errorf("wire: cannot marshal %T header", h)
	}
	return nil
}

// UnmarshalHeader decodes a header packet into a freshly allocated
// header of the kind's live type, ready to hand to the matching plane's
// Forward. Streams of packets (the cluster's shard workers) should use
// a HeaderDecoder, which reuses storage across decodes.
func UnmarshalHeader(data []byte) (sim.Header, error) {
	var hd HeaderDecoder
	return hd.decode(data, false)
}

// HeaderDecoder decodes header packets into reusable storage: the
// scratch header struct itself plus small arenas for the variable-size
// sections (tree-label root paths, waypoint stacks), so a worker
// decoding one packet per frame allocates nothing in steady state.
//
// The returned header — including every slice it references — is valid
// only until the next Decode call, and a HeaderDecoder is not safe for
// concurrent use: one per worker goroutine. The arenas are essential
// for correctness, not just speed: a live header's slices may alias
// read-only scheme tables (a dictionary fetch writes a table label into
// the header), so decoding "into" a previous header's slices could
// corrupt shared state — the decoder therefore only ever writes into
// memory it owns.
type HeaderDecoder struct {
	scratch sim.Header
	light   arenaOf[tree.LightHop]
	wps     arenaOf[core.ExWaypoint]
	glbs    arenaOf[core.ExGlobal]
}

// arenaOf hands out small carve-out slices of one backing array,
// recycled wholesale on reset. Growing abandons the old array to any
// slices already carved from it (they stay valid until reset).
type arenaOf[T any] struct{ buf []T }

func (a *arenaOf[T]) take(n int) []T {
	if cap(a.buf)-len(a.buf) < n {
		a.buf = make([]T, 0, 2*(len(a.buf)+n)+16)
	}
	s := a.buf[len(a.buf) : len(a.buf)+n : len(a.buf)+n]
	a.buf = a.buf[:len(a.buf)+n]
	return s
}

func (a *arenaOf[T]) reset() { a.buf = a.buf[:0] }

// Decode decodes one header packet, reusing the decoder's scratch
// storage. The result is invalidated by the next Decode.
func (hd *HeaderDecoder) Decode(data []byte) (sim.Header, error) {
	return hd.decode(data, true)
}

func (hd *HeaderDecoder) decode(data []byte, reuse bool) (sim.Header, error) {
	d := &decoder{data: data}
	if reuse {
		hd.light.reset()
		hd.wps.reset()
		hd.glbs.reset()
		d.hd = hd
	}
	kind, err := d.envelope(blobHeader)
	if err != nil {
		return nil, err
	}
	return hd.dispatch(d, kind, reuse)
}

func (hd *HeaderDecoder) dispatch(d *decoder, kind core.Kind, reuse bool) (sim.Header, error) {
	var h sim.Header
	var err error
	switch kind {
	case core.KindStretchSix:
		hh, ok := hd.scratch.(*core.S6Header)
		if !ok || !reuse {
			hh = &core.S6Header{}
			hd.scratch = hh
		}
		h, err = hh, decodeS6HeaderInto(d, hh)
	case core.KindExStretch:
		hh, ok := hd.scratch.(*core.ExHeader)
		if !ok || !reuse {
			hh = &core.ExHeader{}
			hd.scratch = hh
		}
		h, err = hh, decodeExHeaderInto(d, hh)
	case core.KindPolynomial:
		hh, ok := hd.scratch.(*core.PolyHeader)
		if !ok || !reuse {
			hh = &core.PolyHeader{}
			hd.scratch = hh
		}
		h, err = hh, decodePolyHeaderInto(d, hh)
	case core.KindRTZ:
		hh, ok := hd.scratch.(*core.RTZHeader)
		if !ok || !reuse {
			hh = &core.RTZHeader{}
			hd.scratch = hh
		}
		h, err = hh, decodeRTZPlaneHeaderInto(d, hh)
	case core.KindHop:
		hh, ok := hd.scratch.(*core.HopHeader)
		if !ok || !reuse {
			hh = &core.HopHeader{}
			hd.scratch = hh
		}
		h, err = hh, decodeHopPlaneHeaderInto(d, hh)
	default:
		return nil, d.fail("unknown header kind %d", uint8(kind))
	}
	if err != nil {
		return nil, err
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return h, nil
}

// The decode*Into functions assign every field of their target, so a
// reused scratch header carries no state across packets.
func decodeS6HeaderInto(d *decoder, h *core.S6Header) error {
	m, err := d.byte1()
	if err != nil {
		return err
	}
	h.Mode = core.Mode(m)
	if h.DestName, err = d.i32(); err != nil {
		return err
	}
	if h.SrcName, err = d.i32(); err != nil {
		return err
	}
	if h.SrcLabel, err = d.rtzLabel(); err != nil {
		return err
	}
	if h.DictName, err = d.i32(); err != nil {
		return err
	}
	st, err := d.byte1()
	if err != nil {
		return err
	}
	h.Stage = core.S6Stage(st)
	if h.Fetched, err = d.rtzLabel(); err != nil {
		return err
	}
	if h.Leg, err = d.rtzHeader(); err != nil {
		return err
	}
	if h.LegSet, err = d.b(); err != nil {
		return err
	}
	h.SyncCaches()
	return nil
}

func decodeExHeaderInto(d *decoder, h *core.ExHeader) error {
	m, err := d.byte1()
	if err != nil {
		return err
	}
	h.Mode = core.Mode(m)
	if h.DestName, err = d.i32(); err != nil {
		return err
	}
	if h.SrcName, err = d.i32(); err != nil {
		return err
	}
	hop, err := d.i32()
	if err != nil {
		return err
	}
	if hop < -128 || hop > 127 {
		return d.fail("hop index %d outside int8", hop)
	}
	h.Hop = int8(hop)
	if h.NextWaypointName, err = d.i32(); err != nil {
		return err
	}
	ns, err := d.count(7)
	if err != nil {
		return err
	}
	h.Stack = nil
	if ns > 0 {
		if d.hd != nil {
			h.Stack = d.hd.wps.take(ns)
		} else {
			h.Stack = make([]core.ExWaypoint, ns)
		}
	}
	for i := 0; i < ns; i++ {
		w := &h.Stack[i]
		if w.Name, err = d.i32(); err != nil {
			return err
		}
		if w.HS, err = d.handshake(); err != nil {
			return err
		}
	}
	ng, err := d.count(3)
	if err != nil {
		return err
	}
	h.Global = nil
	if ng > 0 {
		if d.hd != nil {
			h.Global = d.hd.glbs.take(ng)
		} else {
			h.Global = make([]core.ExGlobal, ng)
		}
	}
	for i := 0; i < ng; i++ {
		g := &h.Global[i]
		if g.Ref, err = d.treeRef(); err != nil {
			return err
		}
		if g.Label, err = d.treeLabel(); err != nil {
			return err
		}
	}
	if h.Leg, err = d.hopLeg(); err != nil {
		return err
	}
	if h.LegSet, err = d.b(); err != nil {
		return err
	}
	return nil
}

func decodePolyHeaderInto(d *decoder, h *core.PolyHeader) error {
	m, err := d.byte1()
	if err != nil {
		return err
	}
	h.Mode = core.Mode(m)
	if h.DestName, err = d.i32(); err != nil {
		return err
	}
	if h.SrcName, err = d.i32(); err != nil {
		return err
	}
	if h.Level, err = d.i32(); err != nil {
		return err
	}
	if h.Found, err = d.b(); err != nil {
		return err
	}
	if h.Ref, err = d.treeRef(); err != nil {
		return err
	}
	if h.SourceLabel, err = d.treeLabel(); err != nil {
		return err
	}
	if h.NextWaypointName, err = d.i32(); err != nil {
		return err
	}
	if h.Target, err = d.treeLabel(); err != nil {
		return err
	}
	if h.Descending, err = d.b(); err != nil {
		return err
	}
	return nil
}

func decodeRTZPlaneHeaderInto(d *decoder, h *core.RTZHeader) error {
	var err error
	if h.SrcName, err = d.i32(); err != nil {
		return err
	}
	if h.DstName, err = d.i32(); err != nil {
		return err
	}
	if h.SrcLabel, err = d.rtzLabel(); err != nil {
		return err
	}
	if h.Leg, err = d.rtzHeader(); err != nil {
		return err
	}
	return nil
}

func decodeHopPlaneHeaderInto(d *decoder, h *core.HopHeader) error {
	var err error
	if h.HS, err = d.handshake(); err != nil {
		return err
	}
	if h.Leg, err = d.hopLeg(); err != nil {
		return err
	}
	return nil
}

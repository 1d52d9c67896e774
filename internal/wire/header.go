package wire

import (
	"fmt"

	"rtroute/internal/core"
	"rtroute/internal/sim"
)

// This file is the flight-frame *section* codec of the ExStretch and
// Polynomial kinds, and nothing else: the two schemes rewrite waypoint
// stacks mid-leg, so their section is one varint body — always fully
// decoded, always re-encoded, never patched — where the other three
// kinds have fixed-layout sections (flight.go). It is these two kinds'
// only header wire form; there is no self-contained header packet.

// headerBody appends the varint section of an Ex/Poly header.
func (e *encoder) headerBody(h sim.Header) error {
	switch hh := h.(type) {
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
	default:
		return fmt.Errorf("wire: %T header has no varint section", h)
	}
	return nil
}

// dispatch decodes the varint section sec of an Ex/Poly flight frame
// into the decoder's scratch header of that kind; the section must be
// consumed exactly.
func (hd *HeaderDecoder) dispatch(sec []byte, kind core.Kind) (sim.Header, error) {
	d := &decoder{data: sec, hd: hd}
	var h sim.Header
	var err error
	switch kind {
	case core.KindExStretch:
		hh, ok := hd.scratch.(*core.ExHeader)
		if !ok {
			hh = &core.ExHeader{}
			hd.scratch = hh
		}
		h, err = hh, decodeExHeaderInto(d, hh)
	case core.KindPolynomial:
		hh, ok := hd.scratch.(*core.PolyHeader)
		if !ok {
			hh = &core.PolyHeader{}
			hd.scratch = hh
		}
		h, err = hh, decodePolyHeaderInto(d, hh)
	default:
		return nil, d.fail("header kind %d has no varint section", uint8(kind))
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
// reused scratch header carries no state across packets; variable-size
// parts are carved from the decoder's arenas (d.hd is always set here).
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
		h.Stack = d.hd.wps.take(ns)
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
		h.Global = d.hd.glbs.take(ng)
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

package wire

import (
	"fmt"

	"rtroute/internal/codec"
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
		e.Byte1(byte(hh.Mode))
		e.I(int64(hh.DestName))
		e.I(int64(hh.SrcName))
		e.I(int64(hh.Hop))
		e.I(int64(hh.NextWaypointName))
		e.U(uint64(len(hh.Stack)))
		for _, w := range hh.Stack {
			e.I(int64(w.Name))
			e.Handshake(w.HS)
		}
		e.U(uint64(len(hh.Global)))
		for _, g := range hh.Global {
			e.TreeRef(g.Ref)
			e.TreeLabel(g.Label)
		}
		e.HopLeg(hh.Leg)
		e.B(hh.LegSet)
	case *core.PolyHeader:
		e.Byte1(byte(hh.Mode))
		e.I(int64(hh.DestName))
		e.I(int64(hh.SrcName))
		e.I(int64(hh.Level))
		e.B(hh.Found)
		e.TreeRef(hh.Leg.Ref) // the leg's fields sit where the header's own did
		e.TreeLabel(hh.SourceLabel)
		e.I(int64(hh.NextWaypointName))
		e.TreeLabel(hh.Leg.Target)
		e.B(hh.Leg.Descending)
	default:
		return fmt.Errorf("wire: %T header has no varint section", h)
	}
	return nil
}

// dispatch decodes the varint section sec of an Ex/Poly flight frame
// into the decoder's scratch header of that kind; the section must be
// consumed exactly.
func (hd *HeaderDecoder) dispatch(sec []byte, kind core.Kind) (sim.Header, error) {
	d := &decoder{Decoder: codec.Decoder{Data: sec, Light: &hd.light}, hd: hd}
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
		return nil, d.Fail("header kind %d has no varint section", uint8(kind))
	}
	if err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return h, nil
}

// The decode*Into functions assign every field of their target, so a
// reused scratch header carries no state across packets; variable-size
// parts are carved from the decoder's arenas (d.hd is always set here).
func decodeExHeaderInto(d *decoder, h *core.ExHeader) error {
	m, err := d.Byte1()
	if err != nil {
		return err
	}
	h.Mode = core.Mode(m)
	if h.DestName, err = d.I32(); err != nil {
		return err
	}
	if h.SrcName, err = d.I32(); err != nil {
		return err
	}
	hop, err := d.I32()
	if err != nil {
		return err
	}
	if hop < -128 || hop > 127 {
		return d.Fail("hop index %d outside int8", hop)
	}
	h.Hop = int8(hop)
	if h.NextWaypointName, err = d.I32(); err != nil {
		return err
	}
	ns, err := d.Count(7)
	if err != nil {
		return err
	}
	h.Stack = nil
	if ns > 0 {
		h.Stack = d.hd.wps.Take(ns)
	}
	for i := 0; i < ns; i++ {
		w := &h.Stack[i]
		if w.Name, err = d.I32(); err != nil {
			return err
		}
		if w.HS, err = d.Handshake(); err != nil {
			return err
		}
	}
	ng, err := d.Count(3)
	if err != nil {
		return err
	}
	h.Global = nil
	if ng > 0 {
		h.Global = d.hd.glbs.Take(ng)
	}
	for i := 0; i < ng; i++ {
		g := &h.Global[i]
		if g.Ref, err = d.TreeRef(); err != nil {
			return err
		}
		if g.Label, err = d.TreeLabel(); err != nil {
			return err
		}
	}
	if h.Leg, err = d.HopLeg(); err != nil {
		return err
	}
	if h.LegSet, err = d.B(); err != nil {
		return err
	}
	return nil
}

func decodePolyHeaderInto(d *decoder, h *core.PolyHeader) error {
	m, err := d.Byte1()
	if err != nil {
		return err
	}
	h.Mode = core.Mode(m)
	if h.DestName, err = d.I32(); err != nil {
		return err
	}
	if h.SrcName, err = d.I32(); err != nil {
		return err
	}
	if h.Level, err = d.I32(); err != nil {
		return err
	}
	if h.Found, err = d.B(); err != nil {
		return err
	}
	if h.Leg.Ref, err = d.TreeRef(); err != nil {
		return err
	}
	if h.SourceLabel, err = d.TreeLabel(); err != nil {
		return err
	}
	if h.NextWaypointName, err = d.I32(); err != nil {
		return err
	}
	if h.Leg.Target, err = d.TreeLabel(); err != nil {
		return err
	}
	if h.Leg.Descending, err = d.B(); err != nil {
		return err
	}
	return nil
}

package wire

import (
	"encoding/binary"
	"fmt"

	"rtroute/internal/codec"
	"rtroute/internal/core"
	"rtroute/internal/graph"
	"rtroute/internal/rtz"
	"rtroute/internal/sim"
	"rtroute/internal/tree"
)

// The flight frame: the fixed-layout form an in-flight packet wears
// between shards. A forwarding shard touches a frame many times but
// *reads* almost none of it — it needs the current node, the running
// leg totals and the roundtrip routing preamble, and it mutates at most
// one scheme byte per segment (the rtz leg phase, the hop descent
// flag). An all-varint header would make every crossing pay a full
// header decode and re-encode; the flight frame puts everything a
// forwarding shard reads at fixed offsets, leaves the big label blobs
// as opaque byte ranges copied verbatim (or not copied at all: a clean
// crossing patches the received buffer in place and ships it onward),
// and defers full varint label decode to the shards that own the
// roundtrip's endpoints.
//
// Layout (all fixed-width fields little-endian):
//
//	offset  0: magic "RTWF" (4 bytes)
//	offset  4: version (1 byte — Version < 0x80, so the envelope's
//	           uvarint version collapses to a fixed byte)
//	offset  5: blob type (3 = frame)
//	offset  6: frame kind (6 = flight)
//	offset  7: flags (bit0 = return leg, bit1 = sampled)
//	offset  8: source name   (u32)
//	offset 12: dest name     (u32)
//	offset 16: current node  (u32)
//	offset 20: home shard    (u32, two's-complement int32)
//	offset 24: origin        (u64)
//	offset 32: roundtrip tag (u64)
//	offset 40: outbound totals (hops u32, weight u64, header words u32)
//	offset 56: return totals   (same 16-byte shape)
//	offset 72: header kind (1 byte, core.Kind)
//	offset 73: header section, kind-specific (below), to end of frame
//
// The header section splits into a small fixed part (the scalars the
// scheme's waypoint logic compares, plus u16 offsets locating the
// variable blobs) and the label blobs in the existing varint codecs.
// The blobs a crossing never reads — the stretch-6 source/fetched
// labels, the rtz source label, the hop handshake — are located by
// offset so the lazy decoder can skip them entirely and the re-encoder
// can copy them verbatim from the received frame.

const (
	flightOffFlags   = 7
	flightOffSrcName = 8
	flightOffDstName = 12
	flightOffAt      = 16
	flightOffHome    = 20
	flightOffOrigin  = 24
	flightOffRt      = 32
	flightOffOut     = 40
	flightOffBack    = 56
	flightOffKind    = 72
	flightOffSection = 73
	// flightMinLen is the smallest structurally valid flight frame:
	// preamble + header kind byte + at least one section byte.
	flightMinLen = flightOffSection + 1
)

const (
	flightFlagReturn  byte = 1 << 0
	flightFlagSampled byte = 1 << 1
)

// Stretch-6 section, offsets relative to the section start. The
// forwarding shard patches only the leg phase byte; mode/stage/dict
// changes (waypoint transitions) force a re-encode.
const (
	s6OffMode       = 0  // core.Mode byte
	s6OffStage      = 1  // core.S6Stage byte
	s6OffPhase      = 2  // rtz.Phase byte (the patch byte)
	s6OffLegSet     = 3  // bool byte
	s6OffDict       = 4  // dict waypoint name (u32, -1 = direct)
	s6OffLegDest    = 8  // leg destination node (u32)
	s6OffLegNode    = 12 // leg label node (u32)
	s6OffLegCtrIdx  = 16 // leg label center index (u32)
	s6OffLegCenter  = 20 // leg label center (u32)
	s6OffLegTin     = 24 // leg label tree tin (u32)
	s6OffLegW       = 28 // Leg.Words() (u16)
	s6OffSrcW       = 30 // SrcLabel.Words() (u16)
	s6OffFetchedW   = 32 // Fetched.Words() (u16)
	s6OffSrcOff     = 34 // section-relative offset of the SrcLabel blob (u16)
	s6OffFetchedOff = 36 // section-relative offset of the Fetched blob (u16)
	s6FixedLen      = 38 // then: leg light hops (fixed) | SrcLabel | Fetched blobs
)

// The leg's light-hop list is read at EVERY crossing (the rtz descent
// logic walks it), so unlike the endpoint-only label blobs it is stored
// fixed-width — u16 count then 8 bytes per hop (branch tin u32, port
// u32) — and decodes with straight-line loads instead of a varint loop.
const lightHopBytes = 8

// RTZ-plane section. No word-count fields: the header is fixed-size
// per leg and its source label is only measured where it is decoded.
const (
	rtzOffPhase     = 0  // rtz.Phase byte (the patch byte)
	rtzOffLegDest   = 1  // u32
	rtzOffLegNode   = 5  // u32
	rtzOffLegCtrIdx = 9  // u32
	rtzOffLegCenter = 13 // u32
	rtzOffLegTin    = 17 // u32
	rtzOffSrcOff    = 21 // section-relative offset of the SrcLabel blob (u16)
	rtzFixedLen     = 23 // then: leg light hops | SrcLabel blobs
)

// Hop-plane section.
const (
	hopOffDescending = 0  // bool byte (the patch byte)
	hopOffRefLevel   = 1  // u32
	hopOffRefIndex   = 5  // u32
	hopOffTargetTin  = 9  // u32
	hopOffHSOff      = 13 // section-relative offset of the handshake blob (u16)
	hopFixedLen      = 15 // then: target light hops | handshake blobs
)

// The Ex/Poly schemes rewrite waypoint stacks mid-leg, so their section
// is one varint body (header.go): always fully decoded, always
// re-encoded, never patched. They are the ablation baselines, not the
// serving hot path.

// Locality is the lazy flight decoder's view of which roundtrip
// endpoints are local: label blobs are decoded only when this shard
// will read them (the destination's flip, the dictionary fetch, the
// source's completion). OwnsName must return false — never panic — for
// names outside the deployment, because flight frames are untrusted
// input on the network transport.
type Locality interface {
	OwnsName(name int32) bool
}

// FlightState is the decode-time snapshot DecodeFlight returns so the
// shard can detect, after forwarding, whether the received bytes are
// still valid (CanPatch) or the header changed shape and must be
// re-encoded.
type FlightState struct {
	kind      core.Kind
	ret       bool
	mode      core.Mode
	stage     core.S6Stage
	dict      int32
	patchable bool
}

// CanPatch reports whether the forwarded header can be shipped by
// patching the received flight frame in place (RepatchFlight): the leg
// did not flip and no waypoint transition rewrote a label. Forwarding
// mutates nothing else — the rtz substrate advances only the leg
// phase, the hop substrate only the descent flag — so equality of the
// snapshot scalars implies byte-stability of everything but the patch
// fields.
func (fs FlightState) CanPatch(f *Frame, h sim.Header) bool {
	if !fs.patchable || f.Return != fs.ret {
		return false
	}
	switch hh := h.(type) {
	case *core.S6Header:
		return fs.kind == core.KindStretchSix &&
			hh.Mode == fs.mode && hh.Stage == fs.stage && hh.DictName == fs.dict
	case *core.RTZHeader:
		return fs.kind == core.KindRTZ
	case *core.HopHeader:
		return fs.kind == core.KindHop
	default:
		return false
	}
}

// PeekFrameKind reads a transport message's frame kind without decoding
// it, so the shard can route flight frames and inject batches to their
// fixed-layout decoders and everything else to UnmarshalFrame. ok is
// false when the envelope is not this build's (the caller falls back to
// UnmarshalFrame for the full diagnostic).
func PeekFrameKind(data []byte) (FrameKind, bool) {
	if len(data) < flightOffFlags {
		return 0, false
	}
	for i, c := range magic {
		if data[i] != c {
			return 0, false
		}
	}
	if data[4] != Version || data[5] != blobFrame {
		return 0, false
	}
	return FrameKind(data[6]), true
}

func (e *encoder) u32(v uint32) { e.Buf = binary.LittleEndian.AppendUint32(e.Buf, v) }
func (e *encoder) u64(v uint64) { e.Buf = binary.LittleEndian.AppendUint64(e.Buf, v) }

func (e *encoder) flightTotals(t LegTotals) {
	e.u32(uint32(t.Hops))
	e.u64(uint64(t.Weight))
	e.u32(uint32(t.MaxHeaderWords))
}

func putFlightTotals(b []byte, t LegTotals) {
	binary.LittleEndian.PutUint32(b[0:], uint32(t.Hops))
	binary.LittleEndian.PutUint64(b[4:], uint64(t.Weight))
	binary.LittleEndian.PutUint32(b[12:], uint32(t.MaxHeaderWords))
}

func getFlightTotals(b []byte) (LegTotals, error) {
	var t LegTotals
	t.Hops = int32(binary.LittleEndian.Uint32(b[0:]))
	if t.Hops < 0 {
		return t, fmt.Errorf("wire: flight frame: negative leg hops %d", t.Hops)
	}
	w := binary.LittleEndian.Uint64(b[4:])
	if w > uint64(graph.Inf) {
		return t, fmt.Errorf("wire: flight frame: leg weight %d outside [0, Inf]", w)
	}
	t.Weight = graph.Dist(w)
	t.MaxHeaderWords = int32(binary.LittleEndian.Uint32(b[12:]))
	if t.MaxHeaderWords < 0 {
		return t, fmt.Errorf("wire: flight frame: negative header words %d", t.MaxHeaderWords)
	}
	return t, nil
}

// word16 bounds a cached word count to the section's u16 field.
func word16(w int) (uint16, error) {
	if w < 0 || w > 0xffff {
		return 0, fmt.Errorf("wire: label word count %d outside u16", w)
	}
	return uint16(w), nil
}

// UnmarshalFlightFrame decodes a flight frame's preamble into *f
// (overwriting every field). f.Header aliases the header section
// (kind byte included); decode it with HeaderDecoder.DecodeFlight.
func UnmarshalFlightFrame(data []byte, f *Frame) error {
	if len(data) < flightMinLen {
		return fmt.Errorf("wire: flight frame: %d bytes, need at least %d", len(data), flightMinLen)
	}
	for i, c := range magic {
		if data[i] != c {
			return fmt.Errorf("wire: flight frame: bad magic %q", data[:len(magic)])
		}
	}
	if data[4] != Version {
		return fmt.Errorf("wire: %w: flight frame has version byte %d, this build reads %d",
			ErrVersion, data[4], Version)
	}
	if data[5] != blobFrame {
		return fmt.Errorf("wire: flight frame: blob type %d, want %d", data[5], blobFrame)
	}
	if data[6] != byte(FrameFlight) {
		return fmt.Errorf("wire: flight frame: frame kind %d, want %d", data[6], FrameFlight)
	}
	flags := data[flightOffFlags]
	if flags&^(flightFlagReturn|flightFlagSampled) != 0 {
		return fmt.Errorf("wire: flight frame: unknown flag bits %#x", flags)
	}
	// Field-by-field assignment, not a struct literal: the composite
	// form zero-fills and copies the whole 96-byte Frame per received
	// frame (a measurable duffcopy on the crossing path). The info
	// fields other frame kinds use are cleared explicitly.
	f.Kind = FrameFlight
	f.Return = flags&flightFlagReturn != 0
	f.Sampled = flags&flightFlagSampled != 0
	f.SrcName = int32(binary.LittleEndian.Uint32(data[flightOffSrcName:]))
	f.DstName = int32(binary.LittleEndian.Uint32(data[flightOffDstName:]))
	f.At = graph.NodeID(int32(binary.LittleEndian.Uint32(data[flightOffAt:])))
	f.Home = int32(binary.LittleEndian.Uint32(data[flightOffHome:]))
	f.Origin = binary.LittleEndian.Uint64(data[flightOffOrigin:])
	f.Rt = binary.LittleEndian.Uint64(data[flightOffRt:])
	f.SchemeKind = 0
	f.Nodes = 0
	f.Shards = 0
	if f.Home < HomeClient {
		return fmt.Errorf("wire: flight frame: home %d outside [-2, MaxInt32]", f.Home)
	}
	var err error
	if f.Out, err = getFlightTotals(data[flightOffOut:]); err != nil {
		return err
	}
	if f.Back, err = getFlightTotals(data[flightOffBack:]); err != nil {
		return err
	}
	f.Header = data[flightOffKind:]
	return nil
}

// HeaderDecoder decodes flight-frame header sections into reusable
// storage: the scratch header struct itself plus small arenas for the
// variable-size parts (tree-label root paths, waypoint stacks), so a
// worker decoding one packet per frame allocates nothing in steady
// state.
//
// The returned header — including every slice it references — is valid
// only until the next DecodeFlight call, and a HeaderDecoder is not safe
// for concurrent use: one per worker goroutine. The arenas are essential
// for correctness, not just speed: a live header's slices may alias
// read-only scheme tables (a dictionary fetch writes a table label into
// the header), so decoding "into" a previous header's slices could
// corrupt shared state — the decoder therefore only ever writes into
// memory it owns.
type HeaderDecoder struct {
	scratch sim.Header
	light   codec.Arena[tree.LightHop]
	wps     codec.Arena[core.ExWaypoint]
	glbs    codec.Arena[core.ExGlobal]
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

// DecodeFlight decodes the header section of a flight frame previously
// opened with UnmarshalFlightFrame, into the decoder's reusable scratch
// storage, invalidating the previous result. Label blobs that only
// the roundtrip's endpoints read are decoded when loc owns the relevant
// endpoint and left zero otherwise — the undecoded bytes stay in the
// received frame, which AppendFlightFrame copies verbatim and
// RepatchFlight never touches. The returned FlightState snapshots the
// patch-relevant scalars.
func (hd *HeaderDecoder) DecodeFlight(f *Frame, loc Locality) (sim.Header, FlightState, error) {
	if f.Kind != FrameFlight || len(f.Header) < 2 {
		return nil, FlightState{}, fmt.Errorf("wire: DecodeFlight needs an unmarshaled flight frame")
	}
	hd.light.Reset()
	hd.wps.Reset()
	hd.glbs.Reset()
	kind := core.Kind(f.Header[0])
	sec := f.Header[1:]
	switch kind {
	case core.KindStretchSix:
		hh, ok := hd.scratch.(*core.S6Header)
		if !ok {
			hh = &core.S6Header{}
			hd.scratch = hh
		}
		fs, err := decodeFlightS6(sec, f, hh, loc, hd)
		if err != nil {
			return nil, FlightState{}, err
		}
		return hh, fs, nil
	case core.KindRTZ:
		hh, ok := hd.scratch.(*core.RTZHeader)
		if !ok {
			hh = &core.RTZHeader{}
			hd.scratch = hh
		}
		fs, err := decodeFlightRTZ(sec, f, hh, loc, hd)
		if err != nil {
			return nil, FlightState{}, err
		}
		return hh, fs, nil
	case core.KindHop:
		hh, ok := hd.scratch.(*core.HopHeader)
		if !ok {
			hh = &core.HopHeader{}
			hd.scratch = hh
		}
		fs, err := decodeFlightHop(sec, f, hh, loc, hd)
		if err != nil {
			return nil, FlightState{}, err
		}
		return hh, fs, nil
	case core.KindExStretch, core.KindPolynomial:
		// Varint section (header.go), fully decoded.
		h, err := hd.dispatch(sec, kind)
		if err != nil {
			return nil, FlightState{}, err
		}
		return h, FlightState{kind: kind, ret: f.Return}, nil
	default:
		return nil, FlightState{}, fmt.Errorf("wire: flight frame: unknown header kind %d", byte(kind))
	}
}

// The blob decoders decode one offset-located blob strictly: the blob
// must fill its byte range exactly.

func (e *encoder) lightHopsFixed(light []tree.LightHop) error {
	if len(light) > 0xffff {
		return fmt.Errorf("wire: flight frame: %d light hops exceeds u16", len(light))
	}
	n := len(e.Buf)
	e.Buf = append(e.Buf, make([]byte, 2+len(light)*lightHopBytes)...)
	b := e.Buf[n:]
	binary.LittleEndian.PutUint16(b, uint16(len(light)))
	b = b[2:]
	for i := range light {
		binary.LittleEndian.PutUint32(b[i*lightHopBytes:], uint32(light[i].BranchTin))
		binary.LittleEndian.PutUint32(b[i*lightHopBytes+4:], uint32(light[i].Port))
	}
	return nil
}

func decodeLightFixed(blob []byte, hd *HeaderDecoder) ([]tree.LightHop, error) {
	light, n, err := decodeLightFixedAt(blob, hd)
	if err != nil {
		return nil, err
	}
	if n != len(blob) {
		return nil, fmt.Errorf("wire: flight frame: light-hop blob %d bytes, expected %d", len(blob), n)
	}
	return light, nil
}

// decodeLightFixedAt decodes one fixed-width light-hop list from the
// front of blob and reports how many bytes it spanned, so callers with
// several variable-width fields in sequence (the handshake blob) can
// walk them without per-field offsets.
func decodeLightFixedAt(blob []byte, hd *HeaderDecoder) ([]tree.LightHop, int, error) {
	if len(blob) < 2 {
		return nil, 0, fmt.Errorf("wire: flight frame: light-hop blob %d bytes, need 2", len(blob))
	}
	c := int(binary.LittleEndian.Uint16(blob))
	n := 2 + c*lightHopBytes
	if len(blob) < n {
		return nil, 0, fmt.Errorf("wire: flight frame: light-hop blob %d bytes, count %d needs %d",
			len(blob), c, n)
	}
	if c == 0 {
		return nil, n, nil
	}
	light := hd.light.Take(c)
	for i := range light {
		off := 2 + i*lightHopBytes
		light[i].BranchTin = int32(binary.LittleEndian.Uint32(blob[off:]))
		light[i].Port = graph.PortID(int32(binary.LittleEndian.Uint32(blob[off+4:])))
	}
	return light, n, nil
}

// The endpoint label blobs use the same fixed-width discipline as the
// leg's light hops — four u32 scalars then the light-hop list — rather
// than the schemes' varint codecs: the blobs are internal to the flight
// frame (forwarding shards copy them verbatim by offset), and the
// endpoints that do decode them shouldn't pay a varint loop for it.
const labelFixedLen = 16

func (e *encoder) rtzLabelFixed(l rtz.Label) error {
	var fixed [labelFixedLen]byte
	binary.LittleEndian.PutUint32(fixed[0:], uint32(l.Node))
	binary.LittleEndian.PutUint32(fixed[4:], uint32(l.CenterIdx))
	binary.LittleEndian.PutUint32(fixed[8:], uint32(l.Center))
	binary.LittleEndian.PutUint32(fixed[12:], uint32(l.TreeLabel.Tin))
	e.Buf = append(e.Buf, fixed[:]...)
	return e.lightHopsFixed(l.TreeLabel.Light)
}

func decodeLabelBlob(blob []byte, hd *HeaderDecoder) (rtz.Label, error) {
	var l rtz.Label
	if len(blob) < labelFixedLen+2 {
		return l, fmt.Errorf("wire: flight frame: label blob %d bytes, need %d", len(blob), labelFixedLen+2)
	}
	l.Node = graph.NodeID(int32(binary.LittleEndian.Uint32(blob[0:])))
	l.CenterIdx = int32(binary.LittleEndian.Uint32(blob[4:]))
	l.Center = graph.NodeID(int32(binary.LittleEndian.Uint32(blob[8:])))
	l.TreeLabel.Tin = int32(binary.LittleEndian.Uint32(blob[12:]))
	var err error
	l.TreeLabel.Light, err = decodeLightFixed(blob[labelFixedLen:], hd)
	return l, err
}

func (e *encoder) handshakeFixed(hs rtz.Handshake) error {
	var fixed [8]byte
	binary.LittleEndian.PutUint32(fixed[0:], uint32(hs.Ref.Level))
	binary.LittleEndian.PutUint32(fixed[4:], uint32(hs.Ref.Index))
	e.Buf = append(e.Buf, fixed[:]...)
	e.u32(uint32(hs.ULabel.Tin))
	if err := e.lightHopsFixed(hs.ULabel.Light); err != nil {
		return err
	}
	e.u32(uint32(hs.VLabel.Tin))
	return e.lightHopsFixed(hs.VLabel.Light)
}

func decodeHandshakeBlob(blob []byte, hd *HeaderDecoder) (rtz.Handshake, error) {
	var hs rtz.Handshake
	if len(blob) < 12 {
		return hs, fmt.Errorf("wire: flight frame: handshake blob %d bytes, need 12", len(blob))
	}
	hs.Ref.Level = int32(binary.LittleEndian.Uint32(blob[0:]))
	hs.Ref.Index = int32(binary.LittleEndian.Uint32(blob[4:]))
	hs.ULabel.Tin = int32(binary.LittleEndian.Uint32(blob[8:]))
	light, n, err := decodeLightFixedAt(blob[12:], hd)
	if err != nil {
		return hs, err
	}
	hs.ULabel.Light = light
	rest := blob[12+n:]
	if len(rest) < 4 {
		return hs, fmt.Errorf("wire: flight frame: handshake blob truncated before second label")
	}
	hs.VLabel.Tin = int32(binary.LittleEndian.Uint32(rest[0:]))
	if hs.VLabel.Light, err = decodeLightFixed(rest[4:], hd); err != nil {
		return hs, err
	}
	return hs, nil
}

func decodeBoolByte(v byte) (bool, error) {
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("wire: flight frame: invalid bool byte %d", v)
	}
}

func decodeFlightS6(sec []byte, f *Frame, hh *core.S6Header, loc Locality, hd *HeaderDecoder) (FlightState, error) {
	if len(sec) < s6FixedLen {
		return FlightState{}, fmt.Errorf("wire: flight frame: stretch-6 section %d bytes, need %d", len(sec), s6FixedLen)
	}
	srcOff := int(binary.LittleEndian.Uint16(sec[s6OffSrcOff:]))
	fetchedOff := int(binary.LittleEndian.Uint16(sec[s6OffFetchedOff:]))
	if srcOff < s6FixedLen || srcOff > fetchedOff || fetchedOff > len(sec) {
		return FlightState{}, fmt.Errorf("wire: flight frame: stretch-6 blob offsets (%d, %d) outside [%d, %d]",
			srcOff, fetchedOff, s6FixedLen, len(sec))
	}
	legSet, err := decodeBoolByte(sec[s6OffLegSet])
	if err != nil {
		return FlightState{}, err
	}
	hh.Mode = core.Mode(sec[s6OffMode])
	hh.Stage = core.S6Stage(sec[s6OffStage])
	// The endpoint names live in the frame preamble, not the section:
	// honest encodes always agree, so the section stores them once.
	hh.DestName = f.DstName
	hh.SrcName = f.SrcName
	hh.DictName = int32(binary.LittleEndian.Uint32(sec[s6OffDict:]))
	hh.Leg.Dest = graph.NodeID(int32(binary.LittleEndian.Uint32(sec[s6OffLegDest:])))
	hh.Leg.Label.Node = graph.NodeID(int32(binary.LittleEndian.Uint32(sec[s6OffLegNode:])))
	hh.Leg.Label.CenterIdx = int32(binary.LittleEndian.Uint32(sec[s6OffLegCtrIdx:]))
	hh.Leg.Label.Center = graph.NodeID(int32(binary.LittleEndian.Uint32(sec[s6OffLegCenter:])))
	hh.Leg.Label.TreeLabel.Tin = int32(binary.LittleEndian.Uint32(sec[s6OffLegTin:]))
	hh.Leg.Phase = rtz.Phase(sec[s6OffPhase])
	hh.LegSet = legSet
	if hh.Leg.Label.TreeLabel.Light, err = decodeLightFixed(sec[s6FixedLen:srcOff], hd); err != nil {
		return FlightState{}, err
	}
	// Lazy label decode: SrcLabel is read at the destination's flip and
	// at the dictionary waypoint's fetch branch; Fetched is read back at
	// the source during the via-source fetch return. Everywhere else the
	// blobs travel as opaque bytes.
	needSrc := !f.Return && (loc.OwnsName(f.DstName) ||
		(hh.Stage == core.S6StageFetch && loc.OwnsName(hh.DictName)))
	if needSrc {
		if hh.SrcLabel, err = decodeLabelBlob(sec[srcOff:fetchedOff], hd); err != nil {
			return FlightState{}, err
		}
	} else {
		hh.SrcLabel = rtz.Label{}
	}
	needFetched := !f.Return && hh.Stage == core.S6StageFetchReturn && loc.OwnsName(f.SrcName)
	if needFetched {
		if hh.Fetched, err = decodeLabelBlob(sec[fetchedOff:], hd); err != nil {
			return FlightState{}, err
		}
	} else {
		hh.Fetched = rtz.Label{}
	}
	hh.PrimeWordCaches(
		int32(binary.LittleEndian.Uint16(sec[s6OffLegW:])),
		int32(binary.LittleEndian.Uint16(sec[s6OffSrcW:])),
		int32(binary.LittleEndian.Uint16(sec[s6OffFetchedW:])))
	return FlightState{
		kind: core.KindStretchSix, ret: f.Return,
		mode: hh.Mode, stage: hh.Stage, dict: hh.DictName, patchable: true,
	}, nil
}

func decodeFlightRTZ(sec []byte, f *Frame, hh *core.RTZHeader, loc Locality, hd *HeaderDecoder) (FlightState, error) {
	if len(sec) < rtzFixedLen {
		return FlightState{}, fmt.Errorf("wire: flight frame: rtz section %d bytes, need %d", len(sec), rtzFixedLen)
	}
	srcOff := int(binary.LittleEndian.Uint16(sec[rtzOffSrcOff:]))
	if srcOff < rtzFixedLen || srcOff > len(sec) {
		return FlightState{}, fmt.Errorf("wire: flight frame: rtz blob offset %d outside [%d, %d]",
			srcOff, rtzFixedLen, len(sec))
	}
	hh.SrcName = f.SrcName
	hh.DstName = f.DstName
	hh.Leg.Dest = graph.NodeID(int32(binary.LittleEndian.Uint32(sec[rtzOffLegDest:])))
	hh.Leg.Label.Node = graph.NodeID(int32(binary.LittleEndian.Uint32(sec[rtzOffLegNode:])))
	hh.Leg.Label.CenterIdx = int32(binary.LittleEndian.Uint32(sec[rtzOffLegCtrIdx:]))
	hh.Leg.Label.Center = graph.NodeID(int32(binary.LittleEndian.Uint32(sec[rtzOffLegCenter:])))
	hh.Leg.Label.TreeLabel.Tin = int32(binary.LittleEndian.Uint32(sec[rtzOffLegTin:]))
	hh.Leg.Phase = rtz.Phase(sec[rtzOffPhase])
	var err error
	if hh.Leg.Label.TreeLabel.Light, err = decodeLightFixed(sec[rtzFixedLen:srcOff], hd); err != nil {
		return FlightState{}, err
	}
	// SrcLabel is read only at the destination's flip (BeginReturn).
	if !f.Return && loc.OwnsName(f.DstName) {
		if hh.SrcLabel, err = decodeLabelBlob(sec[srcOff:], hd); err != nil {
			return FlightState{}, err
		}
	} else {
		hh.SrcLabel = rtz.Label{}
	}
	return FlightState{kind: core.KindRTZ, ret: f.Return, patchable: true}, nil
}

func decodeFlightHop(sec []byte, f *Frame, hh *core.HopHeader, loc Locality, hd *HeaderDecoder) (FlightState, error) {
	if len(sec) < hopFixedLen {
		return FlightState{}, fmt.Errorf("wire: flight frame: hop section %d bytes, need %d", len(sec), hopFixedLen)
	}
	hsOff := int(binary.LittleEndian.Uint16(sec[hopOffHSOff:]))
	if hsOff < hopFixedLen || hsOff > len(sec) {
		return FlightState{}, fmt.Errorf("wire: flight frame: hop blob offset %d outside [%d, %d]",
			hsOff, hopFixedLen, len(sec))
	}
	descending, err := decodeBoolByte(sec[hopOffDescending])
	if err != nil {
		return FlightState{}, err
	}
	hh.Leg.Ref.Level = int32(binary.LittleEndian.Uint32(sec[hopOffRefLevel:]))
	hh.Leg.Ref.Index = int32(binary.LittleEndian.Uint32(sec[hopOffRefIndex:]))
	hh.Leg.Target.Tin = int32(binary.LittleEndian.Uint32(sec[hopOffTargetTin:]))
	hh.Leg.Descending = descending
	if hh.Leg.Target.Light, err = decodeLightFixed(sec[hopFixedLen:hsOff], hd); err != nil {
		return FlightState{}, err
	}
	// The handshake is read only at the destination's flip.
	if !f.Return && loc.OwnsName(f.DstName) {
		if hh.HS, err = decodeHandshakeBlob(sec[hsOff:], hd); err != nil {
			return FlightState{}, err
		}
	} else {
		hh.HS = rtz.Handshake{}
	}
	return FlightState{kind: core.KindHop, ret: f.Return, patchable: true}, nil
}

// RepatchFlight rewrites the routing preamble (current node, leg
// totals) and the scheme's single mutable byte in place, so a clean
// crossing — FlightState.CanPatch — ships the received buffer onward
// without re-encoding anything. data must be the frame the header was
// decoded from.
func RepatchFlight(data []byte, f *Frame, h sim.Header) error {
	if len(data) < flightMinLen || data[6] != byte(FrameFlight) {
		return fmt.Errorf("wire: RepatchFlight needs a flight frame")
	}
	binary.LittleEndian.PutUint32(data[flightOffAt:], uint32(f.At))
	putFlightTotals(data[flightOffOut:], f.Out)
	putFlightTotals(data[flightOffBack:], f.Back)
	sec := data[flightOffSection:]
	switch hh := h.(type) {
	case *core.S6Header:
		if data[flightOffKind] != byte(core.KindStretchSix) || len(sec) < s6FixedLen {
			return fmt.Errorf("wire: RepatchFlight: frame is not the header's")
		}
		sec[s6OffPhase] = byte(hh.Leg.Phase)
	case *core.RTZHeader:
		if data[flightOffKind] != byte(core.KindRTZ) || len(sec) < rtzFixedLen {
			return fmt.Errorf("wire: RepatchFlight: frame is not the header's")
		}
		sec[rtzOffPhase] = byte(hh.Leg.Phase)
	case *core.HopHeader:
		if data[flightOffKind] != byte(core.KindHop) || len(sec) < hopFixedLen {
			return fmt.Errorf("wire: RepatchFlight: frame is not the header's")
		}
		if hh.Leg.Descending {
			sec[hopOffDescending] = 1
		} else {
			sec[hopOffDescending] = 0
		}
	default:
		return fmt.Errorf("wire: RepatchFlight: %T header is not patchable", h)
	}
	return nil
}

// AppendFlightFrame encodes f and the live header h as a flight frame,
// appending to dst. prev, when non-nil, must be the flight frame h was
// decoded from (lazily): the label blobs the decoder skipped are copied
// from prev verbatim, so a frame stays byte-stable across shards that
// never read those labels. prev == nil (injection) encodes every blob
// from the fully decoded struct.
func AppendFlightFrame(dst []byte, f *Frame, h sim.Header, prev []byte) ([]byte, error) {
	k, err := headerKind(h)
	if err != nil {
		return nil, err
	}
	var prevSec []byte
	if prev != nil {
		if len(prev) < flightMinLen || prev[6] != byte(FrameFlight) || prev[flightOffKind] != byte(k) {
			return nil, fmt.Errorf("wire: AppendFlightFrame: prev is not a %v flight frame", k)
		}
		prevSec = prev[flightOffSection:]
	}
	e := &encoder{codec.Encoder{Buf: dst}}
	e.Buf = append(e.Buf, magic[:]...)
	e.Buf = append(e.Buf, byte(Version), blobFrame, byte(FrameFlight))
	var flags byte
	if f.Return {
		flags |= flightFlagReturn
	}
	if f.Sampled {
		flags |= flightFlagSampled
	}
	e.Byte1(flags)
	e.u32(uint32(f.SrcName))
	e.u32(uint32(f.DstName))
	e.u32(uint32(f.At))
	e.u32(uint32(f.Home))
	e.u64(f.Origin)
	e.u64(f.Rt)
	e.flightTotals(f.Out)
	e.flightTotals(f.Back)
	e.Byte1(byte(k))
	secStart := len(e.Buf)
	switch hh := h.(type) {
	case *core.S6Header:
		if err := e.flightS6Section(hh, prevSec, secStart); err != nil {
			return nil, err
		}
	case *core.RTZHeader:
		if err := e.flightRTZSection(hh, prevSec, secStart); err != nil {
			return nil, err
		}
	case *core.HopHeader:
		if err := e.flightHopSection(hh, prevSec, secStart); err != nil {
			return nil, err
		}
	default:
		// Ex/Poly: the varint section (header.go).
		if err := e.headerBody(h); err != nil {
			return nil, err
		}
	}
	return e.Buf, nil
}

func (e *encoder) flightS6Section(hh *core.S6Header, prevSec []byte, secStart int) error {
	var fixed [s6FixedLen]byte
	fixed[s6OffMode] = byte(hh.Mode)
	fixed[s6OffStage] = byte(hh.Stage)
	fixed[s6OffPhase] = byte(hh.Leg.Phase)
	if hh.LegSet {
		fixed[s6OffLegSet] = 1
	}
	binary.LittleEndian.PutUint32(fixed[s6OffDict:], uint32(hh.DictName))
	binary.LittleEndian.PutUint32(fixed[s6OffLegDest:], uint32(hh.Leg.Dest))
	binary.LittleEndian.PutUint32(fixed[s6OffLegNode:], uint32(hh.Leg.Label.Node))
	binary.LittleEndian.PutUint32(fixed[s6OffLegCtrIdx:], uint32(hh.Leg.Label.CenterIdx))
	binary.LittleEndian.PutUint32(fixed[s6OffLegCenter:], uint32(hh.Leg.Label.Center))
	binary.LittleEndian.PutUint32(fixed[s6OffLegTin:], uint32(hh.Leg.Label.TreeLabel.Tin))
	legW, err := word16(hh.Leg.Words())
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(fixed[s6OffLegW:], legW)
	e.Buf = append(e.Buf, fixed[:]...)
	if err := e.lightHopsFixed(hh.Leg.Label.TreeLabel.Light); err != nil {
		return err
	}
	srcOff := len(e.Buf) - secStart
	var srcW, fetchedW uint16
	if prevSec != nil {
		// SrcLabel is written once, at injection, before the first
		// crossing: copy the arrived bytes verbatim.
		pSrcOff := int(binary.LittleEndian.Uint16(prevSec[s6OffSrcOff:]))
		pFetchedOff := int(binary.LittleEndian.Uint16(prevSec[s6OffFetchedOff:]))
		if pSrcOff < s6FixedLen || pSrcOff > pFetchedOff || pFetchedOff > len(prevSec) {
			return fmt.Errorf("wire: AppendFlightFrame: corrupt prev stretch-6 offsets")
		}
		e.Buf = append(e.Buf, prevSec[pSrcOff:pFetchedOff]...)
		srcW = binary.LittleEndian.Uint16(prevSec[s6OffSrcW:])
		fetchedOff := len(e.Buf) - secStart
		// Fetched is rewritten exactly at the dictionary waypoint's
		// Fetch -> FetchReturn transition (where it was just decoded
		// from the local table); every other crossing carries it
		// verbatim.
		if core.S6Stage(prevSec[s6OffStage]) == core.S6StageFetch && hh.Stage != core.S6StageFetch {
			if err := e.rtzLabelFixed(hh.Fetched); err != nil {
				return err
			}
			w, err := word16(hh.Fetched.Words())
			if err != nil {
				return err
			}
			fetchedW = w
		} else {
			e.Buf = append(e.Buf, prevSec[pFetchedOff:]...)
			fetchedW = binary.LittleEndian.Uint16(prevSec[s6OffFetchedW:])
		}
		return e.finishS6Section(secStart, srcOff, fetchedOff, srcW, fetchedW)
	}
	if err := e.rtzLabelFixed(hh.SrcLabel); err != nil {
		return err
	}
	w, err := word16(hh.SrcLabel.Words())
	if err != nil {
		return err
	}
	srcW = w
	fetchedOff := len(e.Buf) - secStart
	if err := e.rtzLabelFixed(hh.Fetched); err != nil {
		return err
	}
	if fetchedW, err = word16(hh.Fetched.Words()); err != nil {
		return err
	}
	return e.finishS6Section(secStart, srcOff, fetchedOff, srcW, fetchedW)
}

func (e *encoder) finishS6Section(secStart, srcOff, fetchedOff int, srcW, fetchedW uint16) error {
	if fetchedOff > 0xffff {
		return fmt.Errorf("wire: flight section %d bytes exceeds u16 offsets", fetchedOff)
	}
	sec := e.Buf[secStart:]
	binary.LittleEndian.PutUint16(sec[s6OffSrcW:], srcW)
	binary.LittleEndian.PutUint16(sec[s6OffFetchedW:], fetchedW)
	binary.LittleEndian.PutUint16(sec[s6OffSrcOff:], uint16(srcOff))
	binary.LittleEndian.PutUint16(sec[s6OffFetchedOff:], uint16(fetchedOff))
	return nil
}

func (e *encoder) flightRTZSection(hh *core.RTZHeader, prevSec []byte, secStart int) error {
	var fixed [rtzFixedLen]byte
	fixed[rtzOffPhase] = byte(hh.Leg.Phase)
	binary.LittleEndian.PutUint32(fixed[rtzOffLegDest:], uint32(hh.Leg.Dest))
	binary.LittleEndian.PutUint32(fixed[rtzOffLegNode:], uint32(hh.Leg.Label.Node))
	binary.LittleEndian.PutUint32(fixed[rtzOffLegCtrIdx:], uint32(hh.Leg.Label.CenterIdx))
	binary.LittleEndian.PutUint32(fixed[rtzOffLegCenter:], uint32(hh.Leg.Label.Center))
	binary.LittleEndian.PutUint32(fixed[rtzOffLegTin:], uint32(hh.Leg.Label.TreeLabel.Tin))
	e.Buf = append(e.Buf, fixed[:]...)
	if err := e.lightHopsFixed(hh.Leg.Label.TreeLabel.Light); err != nil {
		return err
	}
	srcOff := len(e.Buf) - secStart
	if srcOff > 0xffff {
		return fmt.Errorf("wire: flight section %d bytes exceeds u16 offsets", srcOff)
	}
	if prevSec != nil {
		pSrcOff := int(binary.LittleEndian.Uint16(prevSec[rtzOffSrcOff:]))
		if pSrcOff < rtzFixedLen || pSrcOff > len(prevSec) {
			return fmt.Errorf("wire: AppendFlightFrame: corrupt prev rtz offset")
		}
		e.Buf = append(e.Buf, prevSec[pSrcOff:]...)
	} else if err := e.rtzLabelFixed(hh.SrcLabel); err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(e.Buf[secStart+rtzOffSrcOff:], uint16(srcOff))
	return nil
}

func (e *encoder) flightHopSection(hh *core.HopHeader, prevSec []byte, secStart int) error {
	var fixed [hopFixedLen]byte
	if hh.Leg.Descending {
		fixed[hopOffDescending] = 1
	}
	binary.LittleEndian.PutUint32(fixed[hopOffRefLevel:], uint32(hh.Leg.Ref.Level))
	binary.LittleEndian.PutUint32(fixed[hopOffRefIndex:], uint32(hh.Leg.Ref.Index))
	binary.LittleEndian.PutUint32(fixed[hopOffTargetTin:], uint32(hh.Leg.Target.Tin))
	e.Buf = append(e.Buf, fixed[:]...)
	if err := e.lightHopsFixed(hh.Leg.Target.Light); err != nil {
		return err
	}
	hsOff := len(e.Buf) - secStart
	if hsOff > 0xffff {
		return fmt.Errorf("wire: flight section %d bytes exceeds u16 offsets", hsOff)
	}
	if prevSec != nil {
		pHSOff := int(binary.LittleEndian.Uint16(prevSec[hopOffHSOff:]))
		if pHSOff < hopFixedLen || pHSOff > len(prevSec) {
			return fmt.Errorf("wire: AppendFlightFrame: corrupt prev hop offset")
		}
		e.Buf = append(e.Buf, prevSec[pHSOff:]...)
	} else if err := e.handshakeFixed(hh.HS); err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(e.Buf[secStart+hopOffHSOff:], uint16(hsOff))
	return nil
}

// --- inject batches ---

// InjectEntry is one roundtrip request inside a FrameInjectBatch.
type InjectEntry struct {
	Src, Dst int32
	Rt       uint64
	Sampled  bool
}

// AppendInjectBatch encodes many injects sharing one reply route as a
// single transport message, appending to dst. Injectors amortize one
// mailbox rendezvous (or one socket write) over the whole burst.
func AppendInjectBatch(dst []byte, home int32, origin uint64, entries []InjectEntry) []byte {
	e := &encoder{codec.Encoder{Buf: dst}}
	e.envelope(blobFrame, core.Kind(FrameInjectBatch))
	e.I(int64(home))
	e.U(origin)
	e.U(uint64(len(entries)))
	for i := range entries {
		e.I(int64(entries[i].Src))
		e.I(int64(entries[i].Dst))
		e.B(entries[i].Sampled)
		e.U(entries[i].Rt)
	}
	return e.Buf
}

// ForEachInject decodes a FrameInjectBatch, filling *f as a FrameInject
// for each entry (Home/Origin from the batch envelope, the rest per
// entry) and invoking fn. fn's error aborts the iteration.
func ForEachInject(data []byte, f *Frame, fn func(*Frame) error) error {
	d := &decoder{Decoder: codec.Decoder{Data: data}}
	kind, err := d.envelope(blobFrame)
	if err != nil {
		return err
	}
	if FrameKind(kind) != FrameInjectBatch {
		return d.Fail("frame kind %d, want inject batch", byte(kind))
	}
	home, err := d.I()
	if err != nil {
		return err
	}
	if home < int64(HomeClient) || home > math32Max {
		return d.Fail("batch home %d outside [-2, MaxInt32]", home)
	}
	origin, err := d.U()
	if err != nil {
		return err
	}
	n, err := d.Count(4) // src + dst + sampled + rt: at least 4 bytes each
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		*f = Frame{Kind: FrameInject, Home: int32(home), Origin: origin}
		if f.SrcName, err = d.I32(); err != nil {
			return err
		}
		if f.DstName, err = d.I32(); err != nil {
			return err
		}
		if f.Sampled, err = d.B(); err != nil {
			return err
		}
		if f.Rt, err = d.U(); err != nil {
			return err
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return d.Done()
}

const math32Max = int64(1)<<31 - 1

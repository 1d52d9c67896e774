package wire

import (
	"fmt"
	"math"

	"rtroute/internal/codec"
	"rtroute/internal/core"
	"rtroute/internal/graph"
)

// This file is the cluster control-frame codec: injects, completion
// and drop reports, and the info handshake. A frame is one transport
// message, length-delimited by the transport (a channel element in
// process, a length-prefixed TCP segment on the network). In-flight
// packets travel as flight frames (flight.go), which share the Frame
// struct and the envelope but not this varint layout.

// FrameKind discriminates cluster frames.
type FrameKind byte

const (
	// Kind 1 is retired: it was the varint packet frame that flight
	// frames (kind 6) replaced. UnmarshalFrame rejects it as unknown.

	// FrameInject asks the shard owning SrcName's node to start a
	// roundtrip (header creation is the source's job, so injection must
	// land on the source's shard; a shard re-routes foreign injects).
	FrameInject FrameKind = 2
	// FrameDone reports a completed roundtrip back to its home.
	FrameDone FrameKind = 3
	// FrameInfoReq asks a shard to describe its deployment.
	FrameInfoReq FrameKind = 4
	// FrameInfo answers FrameInfoReq.
	FrameInfo FrameKind = 5
	// FrameFlight is an in-flight packet in the fixed-layout flight
	// form (see flight.go): the forwarding shards read and patch a few
	// fixed offsets, and only the owning endpoints pay a full varint
	// decode. Decode with UnmarshalFlightFrame, never UnmarshalFrame.
	FrameFlight FrameKind = 6
	// FrameInjectBatch carries many injects as one transport message
	// (see AppendInjectBatch / ForEachInject in flight.go).
	FrameInjectBatch FrameKind = 7
	// FrameChurn carries one seeded topology-event batch into a shard
	// (see AppendChurnFrame / DecodeChurnFrame in churnframe.go). A
	// batch with no events is the repair acknowledgment a daemon sends
	// back to the connection that injected the batch.
	FrameChurn FrameKind = 8
	// FrameDrop reports a roundtrip abandoned during churn convergence
	// (stale route hit a down link or misdelivered) back to its home —
	// the lossy counterpart of FrameDone, so pipelined clients account
	// for every issued roundtrip even while shards repair.
	FrameDrop FrameKind = 9
)

// FrameDrop reasons.
const (
	// DropUnroutable: the route crossed an administratively down link
	// (typed sim.ErrUnroutable) before repair caught up.
	DropUnroutable byte = 1
	// DropMisroute: the packet misdelivered or failed forwarding on a
	// stale-but-alive route during convergence.
	DropMisroute byte = 2
)

// Home values of a frame: non-negative is the shard the completion
// report must be sent to (Origin is that shard's reply token for the
// client connection the inject arrived on).
const (
	// HomeLocal marks in-process roundtrips: the completing shard
	// records the roundtrip in its own stats and no Done frame flows.
	HomeLocal int32 = -1
	// HomeClient marks injects arriving fresh from a client connection;
	// the first shard that receives one stamps Home/Origin before
	// processing or re-routing it.
	HomeClient int32 = -2
)

// LegTotals is one leg's accumulated flight record, the frame's portable
// form of sim.Flight.
type LegTotals struct {
	Hops           int32
	Weight         graph.Dist
	MaxHeaderWords int32
}

// Frame is the decoded form of one cluster transport message.
type Frame struct {
	Kind             FrameKind
	SrcName, DstName int32
	// Return is true once the packet is on its return leg.
	Return bool
	// At is the node where the next Forward runs (FrameFlight).
	At graph.NodeID
	// Out and Back accumulate each leg's totals; the leg in flight is
	// partial, the other is final.
	Out, Back LegTotals
	// Home and Origin say where the completion report goes (see the
	// Home* constants).
	Home   int32
	Origin uint64
	// Rt is the injector's roundtrip tag, echoed untouched through
	// flight frames into the completion report so a pipelined client can
	// match out-of-order completions (Origin cannot serve: the first
	// shard overwrites it with the connection's reply token).
	Rt      uint64
	Sampled bool
	// Reason classifies a FrameDrop (Drop* constants).
	Reason byte
	// Header is a flight frame's header section (kind byte onward);
	// decode with HeaderDecoder.DecodeFlight. After UnmarshalFlightFrame
	// it aliases the input buffer: decode it before recycling the frame
	// bytes.
	Header []byte
	// Info payload (FrameInfo only).
	SchemeKind core.Kind
	Nodes      int32
	Shards     int32
}

// AppendFrame encodes the control frame f and appends the bytes to dst,
// returning the extended slice.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	e := &encoder{codec.Encoder{Buf: dst}}
	e.envelope(blobFrame, core.Kind(f.Kind))
	switch f.Kind {
	case FrameInject:
		e.I(int64(f.SrcName))
		e.I(int64(f.DstName))
		e.I(int64(f.Home))
		e.U(f.Origin)
		e.U(f.Rt)
		e.B(f.Sampled)
	case FrameDone:
		e.I(int64(f.SrcName))
		e.I(int64(f.DstName))
		e.legTotals(f.Out)
		e.legTotals(f.Back)
		e.U(f.Origin)
		e.U(f.Rt)
		e.B(f.Sampled)
	case FrameInfoReq:
	case FrameInfo:
		e.Byte1(byte(f.SchemeKind))
		e.I(int64(f.Nodes))
		e.I(int64(f.Shards))
	case FrameDrop:
		e.I(int64(f.SrcName))
		e.I(int64(f.DstName))
		e.U(f.Origin)
		e.U(f.Rt)
		e.Byte1(f.Reason)
	case FrameFlight:
		return nil, fmt.Errorf("wire: flight frame: encode with AppendFlightFrame")
	case FrameInjectBatch:
		return nil, fmt.Errorf("wire: inject batch: encode with AppendInjectBatch")
	case FrameChurn:
		return nil, fmt.Errorf("wire: churn batch: encode with AppendChurnFrame")
	default:
		return nil, fmt.Errorf("wire: unknown frame kind %d", f.Kind)
	}
	return e.Buf, nil
}

// UnmarshalFrame decodes one control frame into *f (overwriting every
// field).
func UnmarshalFrame(data []byte, f *Frame) error {
	d := &decoder{Decoder: codec.Decoder{Data: data}}
	kind, err := d.envelope(blobFrame)
	if err != nil {
		return err
	}
	*f = Frame{Kind: FrameKind(kind)}
	switch f.Kind {
	case FrameInject:
		if err := d.framePair(f); err != nil {
			return err
		}
		if err := d.homeOrigin(f); err != nil {
			return err
		}
		if f.Rt, err = d.U(); err != nil {
			return err
		}
		if f.Sampled, err = d.B(); err != nil {
			return err
		}
	case FrameDone:
		if err := d.framePair(f); err != nil {
			return err
		}
		if f.Out, err = d.legTotals(); err != nil {
			return err
		}
		if f.Back, err = d.legTotals(); err != nil {
			return err
		}
		if f.Origin, err = d.U(); err != nil {
			return err
		}
		if f.Rt, err = d.U(); err != nil {
			return err
		}
		if f.Sampled, err = d.B(); err != nil {
			return err
		}
	case FrameInfoReq:
		// no payload
	case FrameInfo:
		k, err := d.Byte1()
		if err != nil {
			return err
		}
		f.SchemeKind = core.Kind(k)
		if f.Nodes, err = d.I32(); err != nil {
			return err
		}
		if f.Shards, err = d.I32(); err != nil {
			return err
		}
	case FrameDrop:
		if err := d.framePair(f); err != nil {
			return err
		}
		if f.Origin, err = d.U(); err != nil {
			return err
		}
		if f.Rt, err = d.U(); err != nil {
			return err
		}
		if f.Reason, err = d.Byte1(); err != nil {
			return err
		}
		if f.Reason != DropUnroutable && f.Reason != DropMisroute {
			return d.Fail("unknown drop reason %d", f.Reason)
		}
	case FrameFlight:
		return d.Fail("flight frame: decode with UnmarshalFlightFrame")
	case FrameInjectBatch:
		return d.Fail("inject batch: decode with ForEachInject")
	case FrameChurn:
		return d.Fail("churn batch: decode with DecodeChurnFrame")
	default:
		return d.Fail("unknown frame kind %d", byte(f.Kind))
	}
	return d.Done()
}

func (e *encoder) legTotals(t LegTotals) {
	e.I(int64(t.Hops))
	e.I(int64(t.Weight))
	e.I(int64(t.MaxHeaderWords))
}

func (d *decoder) legTotals() (LegTotals, error) {
	var t LegTotals
	var err error
	if t.Hops, err = d.I32(); err != nil {
		return t, err
	}
	if t.Hops < 0 {
		return t, d.Fail("negative leg hops %d", t.Hops)
	}
	w, err := d.I()
	if err != nil {
		return t, err
	}
	if w < 0 || w > int64(graph.Inf) {
		return t, d.Fail("leg weight %d outside [0, Inf]", w)
	}
	t.Weight = graph.Dist(w)
	if t.MaxHeaderWords, err = d.I32(); err != nil {
		return t, err
	}
	if t.MaxHeaderWords < 0 {
		return t, d.Fail("negative header words %d", t.MaxHeaderWords)
	}
	return t, nil
}

func (d *decoder) framePair(f *Frame) error {
	var err error
	if f.SrcName, err = d.I32(); err != nil {
		return err
	}
	if f.DstName, err = d.I32(); err != nil {
		return err
	}
	return nil
}

func (d *decoder) homeOrigin(f *Frame) error {
	home, err := d.I()
	if err != nil {
		return err
	}
	if home < int64(HomeClient) || home > math.MaxInt32 {
		return d.Fail("frame home %d outside [-2, MaxInt32]", home)
	}
	f.Home = int32(home)
	if f.Origin, err = d.U(); err != nil {
		return err
	}
	return nil
}

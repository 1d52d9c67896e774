package wire

import (
	"math"

	"rtroute/internal/churn"
	"rtroute/internal/codec"
	"rtroute/internal/core"
	"rtroute/internal/graph"
)

// This file is the churn event frame codec: a topology-event batch in
// transit to a shard. A batch carries a strictly increasing sequence
// number (the shard applies batches in Seq order between two served
// batches, holding early arrivals) plus the events themselves in their
// replayable form — the Poisson clock is shipped as exact float64 bits
// so a daemon's flap damper advances on the same instants the
// generator drew, keeping every replica's overlay bit-deterministic.

// minChurnEventBytes is the smallest wire footprint of one event: kind
// byte, three varint node ids, weight varint, clock varint.
const minChurnEventBytes = 6

// AppendChurnFrame encodes one churn event batch and appends the bytes
// to dst. An empty events slice encodes the repair acknowledgment.
func AppendChurnFrame(dst []byte, seq uint64, events []churn.Event) []byte {
	e := &encoder{codec.Encoder{Buf: dst}}
	e.envelope(blobFrame, core.Kind(FrameChurn))
	e.U(seq)
	e.U(uint64(len(events)))
	for _, ev := range events {
		e.Byte1(byte(ev.Kind))
		e.I(int64(ev.U))
		e.I(int64(ev.V))
		e.I(int64(ev.Node))
		e.I(int64(ev.Weight))
		e.U(math.Float64bits(ev.At))
	}
	return e.Buf
}

// DecodeChurnFrame decodes one churn event batch, appending the events
// to evs (pass a recycled slice to keep the ingestion path
// allocation-lean). Every field is validated with the frame decoders'
// strictness discipline: hostile bytes error, never panic, and a
// hostile count cannot drive an allocation beyond O(len(data)).
func DecodeChurnFrame(data []byte, evs []churn.Event) (seq uint64, out []churn.Event, err error) {
	d := &decoder{Decoder: codec.Decoder{Data: data}}
	kind, err := d.envelope(blobFrame)
	if err != nil {
		return 0, evs, err
	}
	if FrameKind(kind) != FrameChurn {
		return 0, evs, d.Fail("frame kind %d is not a churn batch", byte(kind))
	}
	if seq, err = d.U(); err != nil {
		return 0, evs, err
	}
	n, err := d.Count(minChurnEventBytes)
	if err != nil {
		return 0, evs, err
	}
	for i := 0; i < n; i++ {
		var ev churn.Event
		k, err := d.Byte1()
		if err != nil {
			return 0, evs, err
		}
		ev.Kind = churn.EventKind(k)
		if ev.Kind < churn.EdgeDown || ev.Kind > churn.NodeRecover {
			return 0, evs, d.Fail("unknown churn event kind %d", k)
		}
		u, err := d.I32()
		if err != nil {
			return 0, evs, err
		}
		v, err := d.I32()
		if err != nil {
			return 0, evs, err
		}
		node, err := d.I32()
		if err != nil {
			return 0, evs, err
		}
		if u < 0 || u >= codec.MaxNodes || v < 0 || v >= codec.MaxNodes || node < 0 || node >= codec.MaxNodes {
			return 0, evs, d.Fail("churn event node id outside [0, codec.MaxNodes)")
		}
		ev.U, ev.V, ev.Node = graph.NodeID(u), graph.NodeID(v), graph.NodeID(node)
		w, err := d.I()
		if err != nil {
			return 0, evs, err
		}
		if w < 0 || w > int64(graph.DownWeight) {
			return 0, evs, d.Fail("churn event weight %d outside [0, DownWeight]", w)
		}
		ev.Weight = graph.Dist(w)
		bits, err := d.U()
		if err != nil {
			return 0, evs, err
		}
		ev.At = math.Float64frombits(bits)
		if math.IsNaN(ev.At) || math.IsInf(ev.At, 0) || ev.At < 0 {
			return 0, evs, d.Fail("churn event clock is not a finite non-negative time")
		}
		evs = append(evs, ev)
	}
	if err := d.Done(); err != nil {
		return 0, evs, err
	}
	return seq, evs, nil
}

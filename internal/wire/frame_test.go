package wire

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"rtroute/internal/core"
)

// MarshalFrame is AppendFrame into a fresh buffer.
func MarshalFrame(f *Frame) ([]byte, error) { return AppendFrame(nil, f) }

// retiredPacketFrame is a well-formed envelope of the retired frame
// kind 1 (the varint packet frame flight frames replaced), as an old
// peer would have sent it: preamble fields plus one header byte.
func retiredPacketFrame() []byte {
	e := &encoder{}
	e.envelope(blobFrame, 1)
	e.I(1) // src name
	e.I(2) // dst name
	e.B(false)
	e.I(0) // at
	e.legTotals(LegTotals{})
	e.legTotals(LegTotals{})
	e.I(int64(HomeLocal))
	e.U(0) // origin
	e.U(0) // rt
	e.B(false)
	e.Byte1(1) // header kind
	return e.Buf
}

// TestFrameRoundtrip locks the control-frame codec: every kind encodes
// and decodes bit-identically and rejects trailing bytes.
func TestFrameRoundtrip(t *testing.T) {
	for _, in := range []Frame{
		{Kind: FrameInject, SrcName: 1, DstName: 14, Home: HomeClient, Origin: 0, Sampled: true},
		{Kind: FrameInject, SrcName: 3, DstName: 2, Home: 5, Origin: 12},
		{Kind: FrameDone, SrcName: 1, DstName: 14,
			Out: LegTotals{Hops: 2, Weight: 9, MaxHeaderWords: 8}, Back: LegTotals{Hops: 4, Weight: 11, MaxHeaderWords: 8}, Origin: 12},
		{Kind: FrameInfoReq},
		{Kind: FrameInfo, SchemeKind: 2, Nodes: 1024, Shards: 8},
		{Kind: FrameDrop, SrcName: 1, DstName: 14, Origin: 12, Rt: 3, Reason: DropUnroutable},
		{Kind: FrameDrop, SrcName: 2, DstName: 5, Reason: DropMisroute},
	} {
		blob, err := MarshalFrame(&in)
		if err != nil {
			t.Fatalf("kind %d: marshal: %v", in.Kind, err)
		}
		var out Frame
		if err := UnmarshalFrame(blob, &out); err != nil {
			t.Fatalf("kind %d: unmarshal: %v", in.Kind, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("kind %d mismatch:\n in: %+v\nout: %+v", in.Kind, in, out)
		}
		if err := UnmarshalFrame(append(blob, 0), &out); err == nil {
			t.Fatalf("kind %d: trailing garbage accepted", in.Kind)
		}
	}
}

// TestFrameDecodeRejects locks strictness: truncation, unknown kinds,
// the retired kind 1 and the kinds with their own codecs all error.
func TestFrameDecodeRejects(t *testing.T) {
	blob, err := MarshalFrame(&Frame{Kind: FrameInject, SrcName: 1, DstName: 2, Home: HomeLocal})
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	for cut := 1; cut < len(blob); cut++ {
		if err := UnmarshalFrame(blob[:cut], &f); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	bad := append([]byte(nil), blob...)
	bad[6] = 77 // frame kind slot
	if err := UnmarshalFrame(bad, &f); err == nil {
		t.Fatal("unknown frame kind accepted")
	}
	if _, err := MarshalFrame(&Frame{Kind: 77}); err == nil {
		t.Fatal("unknown frame kind encoded")
	}
	// Kind 1 is rejected: on the wire and at the encoder.
	if err := UnmarshalFrame(retiredPacketFrame(), &f); err == nil || !strings.Contains(err.Error(), "unknown frame kind 1") {
		t.Fatalf("retired kind 1: got %v, want unknown frame kind", err)
	}
	if _, err := MarshalFrame(&Frame{Kind: 1}); err == nil {
		t.Fatal("retired kind 1 encoded")
	}
	// Flight, inject-batch and churn frames have their own codecs.
	for _, k := range []FrameKind{FrameFlight, FrameInjectBatch, FrameChurn} {
		bad[6] = byte(k)
		if err := UnmarshalFrame(bad, &f); err == nil {
			t.Fatalf("kind %d decoded by UnmarshalFrame", k)
		}
		if _, err := MarshalFrame(&Frame{Kind: k}); err == nil {
			t.Fatalf("kind %d encoded by MarshalFrame", k)
		}
	}
}

// TestRetiredBlobTypeRejected: blob type 2 was the self-contained header
// packet. A well-formed envelope of that type, as an old peer would have
// sent it, is rejected by every decoder that reads an envelope.
func TestRetiredBlobTypeRejected(t *testing.T) {
	e := &encoder{}
	e.envelope(2, core.KindRTZ)
	e.I(1) // src name
	e.I(2) // dst name
	var f Frame
	if err := UnmarshalFrame(e.Buf, &f); err == nil || !strings.Contains(err.Error(), "blob type 2") {
		t.Fatalf("UnmarshalFrame on blob type 2: got %v, want a blob-type error", err)
	}
	if _, err := UnmarshalScheme(e.Buf); err == nil || !strings.Contains(err.Error(), "blob type 2") {
		t.Fatalf("UnmarshalScheme on blob type 2: got %v, want a blob-type error", err)
	}
	if _, err := PeekSnapshot(e.Buf); err == nil {
		t.Fatal("PeekSnapshot accepted blob type 2")
	}
	if _, ok := PeekFrameKind(e.Buf); ok {
		t.Fatal("PeekFrameKind accepted blob type 2")
	}
}

// TestPeekSnapshot locks the cheap preamble reader and the ErrVersion
// sentinel for snapshots written by a different format version.
func TestPeekSnapshot(t *testing.T) {
	planes, _ := testPlanes(t, 16, 33)
	for name, p := range planes {
		blob, err := MarshalScheme(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		info, err := PeekSnapshot(blob)
		if err != nil {
			t.Fatalf("%s: peek: %v", name, err)
		}
		if info.Version != Version || info.Nodes != 16 {
			t.Fatalf("%s: peek got %+v", name, info)
		}
		dep, err := UnmarshalScheme(blob)
		if err != nil {
			t.Fatal(err)
		}
		if dep.Kind() != info.Kind {
			t.Fatalf("%s: peek kind %v, decode kind %v", name, info.Kind, dep.Kind())
		}
		// Bump the version varint (currently one byte) and require the
		// sentinel from both the peek and the full decode.
		mut := append([]byte(nil), blob...)
		mut[4] = Version + 1
		if info, err = PeekSnapshot(mut); !errors.Is(err, ErrVersion) {
			t.Fatalf("%s: version bump: got %v", name, err)
		} else if info.Version != Version+1 {
			t.Fatalf("%s: peek reported version %d, want %d", name, info.Version, Version+1)
		}
		if _, err := UnmarshalScheme(mut); !errors.Is(err, ErrVersion) {
			t.Fatalf("%s: decode version bump: got %v", name, err)
		}
	}
}

package wire

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rtroute/internal/churn"
)

// testChurnBatch is a fixed batch exercising every event kind, the
// DownWeight ceiling, and non-integral Poisson clocks.
func testChurnBatch() (uint64, []churn.Event) {
	return 7, []churn.Event{
		{Kind: churn.EdgeDown, U: 3, V: 11, At: 0.125},
		{Kind: churn.EdgeUp, U: 3, V: 11, At: 0.6875},
		{Kind: churn.WeightChange, U: 9, V: 2, Weight: 41, At: 1.375},
		{Kind: churn.NodeFail, Node: 14, At: 2.03125},
		{Kind: churn.NodeRecover, Node: 14, At: 3.5},
	}
}

// TestChurnEventFrameGolden locks the churn frame's bytes: the
// committed blob must byte-match a fresh encoding and decode back to
// the exact batch, Poisson clocks bit-identical — the replayability
// contract daemons rely on. Regenerate with -update.
func TestChurnEventFrameGolden(t *testing.T) {
	seq, events := testChurnBatch()
	blob := AppendChurnFrame(nil, seq, events)
	path := filepath.Join("testdata", "churnev.rtwf")
	if *update {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("churn frame bytes diverge from golden %s: layout changed without a version bump (regenerate with -update if intended)", path)
	}
	gotSeq, got, err := DecodeChurnFrame(want, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotSeq != seq || !reflect.DeepEqual(got, events) {
		t.Fatalf("golden decode mismatch:\n got seq=%d %v\nwant seq=%d %v", gotSeq, got, seq, events)
	}
	if k, ok := PeekFrameKind(want); !ok || k != FrameChurn {
		t.Fatalf("PeekFrameKind = %d, %v; want FrameChurn", k, ok)
	}
	// The empty batch is the daemon's repair acknowledgment.
	ack := AppendChurnFrame(nil, seq, nil)
	ackSeq, ackEvs, err := DecodeChurnFrame(ack, nil)
	if err != nil || ackSeq != seq || len(ackEvs) != 0 {
		t.Fatalf("ack roundtrip: seq=%d events=%v err=%v", ackSeq, ackEvs, err)
	}
}

// TestDropFrameRoundtrip covers the lossy completion report.
func TestDropFrameRoundtrip(t *testing.T) {
	for _, reason := range []byte{DropUnroutable, DropMisroute} {
		in := Frame{Kind: FrameDrop, SrcName: 5, DstName: 9, Origin: 3, Rt: 77, Reason: reason}
		blob, err := MarshalFrame(&in)
		if err != nil {
			t.Fatal(err)
		}
		var out Frame
		if err := UnmarshalFrame(blob, &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("drop frame roundtrip: got %+v want %+v", out, in)
		}
	}
	bad := Frame{Kind: FrameDrop, Reason: 3}
	blob, err := MarshalFrame(&bad)
	if err != nil {
		t.Fatal(err)
	}
	var out Frame
	if err := UnmarshalFrame(blob, &out); err == nil {
		t.Fatal("decoder accepted unknown drop reason")
	}
}

// FuzzUnmarshalChurnFrame: arbitrary bytes must error cleanly — never
// panic, never over-allocate — and a successful decode must re-encode
// into a batch that decodes back identically (byte identity is a
// golden-test property, not a fuzz property: varints have non-minimal
// encodings).
func FuzzUnmarshalChurnFrame(f *testing.F) {
	seq, events := testChurnBatch()
	blob := AppendChurnFrame(nil, seq, events)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:8])
	mut := append([]byte(nil), blob...)
	mut[len(mut)/3] ^= 0x5a
	f.Add(mut)
	f.Add(AppendChurnFrame(nil, 1, nil))
	f.Add([]byte{})
	f.Add([]byte("RTWF\x02\x03\x08"))
	f.Fuzz(func(t *testing.T, data []byte) {
		gotSeq, evs, err := DecodeChurnFrame(data, nil)
		if err != nil {
			return
		}
		again := AppendChurnFrame(nil, gotSeq, evs)
		seq2, evs2, err := DecodeChurnFrame(again, nil)
		if err != nil {
			t.Fatalf("decoded batch does not re-encode: %v", err)
		}
		if seq2 != gotSeq || !reflect.DeepEqual(evs, evs2) {
			t.Fatalf("re-encode changed the batch: %v vs %v", evs, evs2)
		}
	})
}

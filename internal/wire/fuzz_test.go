package wire

import (
	"testing"
)

// fuzzSeeds collects valid blobs of every kind plus adversarial
// variants, so the fuzzers start from deep-format corpora.
func fuzzSchemeSeeds(f *testing.F) {
	planes, _ := testPlanes(f, 16, 21)
	for _, p := range planes {
		blob, err := MarshalScheme(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		f.Add(blob[:8])
		// Flip a mid-payload byte.
		mut := append([]byte(nil), blob...)
		mut[len(mut)/3] ^= 0x5a
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte("RTWF"))
	f.Add([]byte("RTWF\x01\x01\x01\xff\xff\xff\xff\xff\xff\xff\xff\x7f"))
}

// FuzzUnmarshalScheme: arbitrary bytes must error cleanly — never
// panic, and never allocate beyond O(len(input)) (the decoder's count
// guards). A successful decode must re-encode.
func FuzzUnmarshalScheme(f *testing.F) {
	fuzzSchemeSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		dep, err := UnmarshalScheme(data)
		if err != nil {
			return
		}
		if dep == nil {
			t.Fatal("nil deployment without error")
		}
		if _, err := MarshalScheme(dep); err != nil {
			t.Fatalf("decoded deployment does not re-encode: %v", err)
		}
	})
}

// FuzzUnmarshalFrame: same contract for cluster control frames — a
// successful decode must re-encode. Each surviving kind seeds the
// corpus whole, truncated and bit-flipped, plus the retired kind 1.
func FuzzUnmarshalFrame(f *testing.F) {
	for _, fr := range []*Frame{
		{Kind: FrameInject, SrcName: 1, DstName: 2, Home: HomeClient},
		{Kind: FrameInject, SrcName: 2, DstName: 3, Home: 5, Origin: 12, Rt: 40, Sampled: true},
		{Kind: FrameDone, SrcName: 1, DstName: 2, Origin: 7},
		{Kind: FrameDone, SrcName: 2, DstName: 3, Rt: 9, Sampled: true,
			Out: LegTotals{Hops: 4, Weight: 17, MaxHeaderWords: 9}, Back: LegTotals{Hops: 2, Weight: 8, MaxHeaderWords: 9}},
		{Kind: FrameInfoReq},
		{Kind: FrameInfo, SchemeKind: 1, Nodes: 16, Shards: 8},
		{Kind: FrameInfo, SchemeKind: 5, Nodes: 1 << 20, Shards: 64},
		{Kind: FrameInject, SrcName: 1 << 20, DstName: 3, Home: HomeLocal, Origin: 1 << 40, Rt: 1 << 50},
		{Kind: FrameDrop, SrcName: 1, DstName: 2, Origin: 7, Rt: 11, Reason: DropUnroutable},
		{Kind: FrameDrop, SrcName: 3, DstName: 4, Reason: DropMisroute},
	} {
		blob, err := MarshalFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)-1])
		mut := append([]byte(nil), blob...)
		mut[len(mut)-1] ^= 0x81
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte("RTWF\x01\x03\x01"))
	f.Add(retiredPacketFrame())
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		if err := UnmarshalFrame(data, &fr); err != nil {
			return
		}
		if _, err := MarshalFrame(&fr); err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
	})
}

// FuzzUnmarshalFlightFrame: the fixed-layout flight frame and the
// batched inject are parsed straight off the socket, so arbitrary bytes
// must error cleanly at some stage — preamble, lazy section decode, or
// re-encode — and never panic. (Byte identity is NOT a fuzz property:
// it holds for canonical encodings and is locked by the golden tests.)
func FuzzUnmarshalFlightFrame(f *testing.F) {
	planes, _ := testPlanes(f, 16, 24)
	for _, p := range planes {
		h, err := p.NewHeader(2, 9)
		if err != nil {
			f.Fatal(err)
		}
		blob, err := AppendFlightFrame(nil, flightTestFrame(), h, nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)-3])
		f.Add(blob[:flightMinLen])
		mut := append([]byte(nil), blob...)
		mut[len(mut)/2] ^= 0x81
		f.Add(mut)
		// Corrupt the section's offset fields specifically: the lazy
		// decoder trusts them only after validation.
		off := append([]byte(nil), blob...)
		off[flightOffSection+10] ^= 0xff
		f.Add(off)
	}
	f.Add(AppendInjectBatch(nil, HomeClient, 3, []InjectEntry{
		{Src: 1, Dst: 2, Rt: 9, Sampled: true}, {Src: 2, Dst: 3, Rt: 10},
	}))
	f.Add([]byte{})
	f.Add([]byte("RTWF\x02\x03\x06"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if k, ok := PeekFrameKind(data); ok && k == FrameInjectBatch {
			var fr Frame
			_ = ForEachInject(data, &fr, func(*Frame) error { return nil })
			return
		}
		var fr Frame
		if err := UnmarshalFlightFrame(data, &fr); err != nil {
			return
		}
		for _, loc := range []Locality{ownsNone{}, ownsAll{}} {
			var hd HeaderDecoder
			h, fs, err := hd.DecodeFlight(&fr, loc)
			if err != nil {
				continue
			}
			_ = fs.CanPatch(&fr, h)
			// Re-encode both ways — blobs verbatim from the received
			// frame, and from whatever the lazy decode populated. Either
			// may reject hostile word counts; neither may panic.
			if again, err := AppendFlightFrame(nil, &fr, h, data); err == nil {
				var fr2 Frame
				if err := UnmarshalFlightFrame(again, &fr2); err != nil {
					t.Fatalf("verbatim re-encode does not re-open: %v", err)
				}
			}
			_, _ = AppendFlightFrame(nil, &fr, h, nil)
		}
	})
}

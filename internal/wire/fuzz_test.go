package wire

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"rtroute/internal/core"
	"rtroute/internal/graph"
	"rtroute/internal/sim"
	"rtroute/internal/tree"
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
	for _, blob := range inconsistentExBlobs(f) {
		f.Add(blob)
	}
	for _, blob := range inconsistentS6Blobs(f) {
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Add([]byte("RTWF"))
	f.Add([]byte("RTWF\x01\x01\x01\xff\xff\xff\xff\xff\xff\xff\xff\x7f"))
}

// inconsistentNode is the node whose section inconsistentExBlobs and
// inconsistentS6Blobs break.
const inconsistentNode = 3

// mutatedBlob is plane's snapshot with inconsistentNode's local state
// passed through mutate before it is encoded.
func mutatedBlob(t testing.TB, plane sim.Plane, mutate func(ls *core.LocalState)) []byte {
	st, local, err := core.Decomposer(plane)
	if err != nil {
		t.Fatal(err)
	}
	e := &encoder{}
	e.envelope(blobScheme, st.Kind)
	encodeShared(e, st)
	encodeSections(e, st.Graph.N(), func(v graph.NodeID) core.LocalState {
		ls := local(v)
		if v == inconsistentNode {
			mutate(&ls)
		}
		return ls
	})
	return e.buf
}

// inconsistentExBlobs are ExStretch snapshots one invariant away from a
// valid one: the node's handshakes carry two of its labels in one tree,
// or its own-name full entry carries a handshake. A restored table keeps
// the node's label once per tree and no handshake for itself, so it
// could not give either section back; the decoder must refuse both.
func inconsistentExBlobs(t testing.TB) map[string][]byte {
	planes, _ := testPlanes(t, 16, 21)
	mutated := func(mutate func(l *core.ExLocal, self, a, b int)) []byte {
		return mutatedBlob(t, planes["exstretch"], func(ls *core.LocalState) {
			var others []int
			self := -1
			for i, fe := range ls.Ex.Full {
				if fe.Name == ls.Ex.SelfName {
					self = i
				} else {
					others = append(others, i)
				}
			}
			if self < 0 || len(others) < 2 {
				t.Fatal("full dictionary lacks the node's own name or two others")
			}
			mutate(ls.Ex, self, others[0], others[1])
		})
	}
	return map[string][]byte{
		"two labels in one tree": mutated(func(l *core.ExLocal, _, a, b int) {
			l.Full[b].HS.Ref = l.Full[a].HS.Ref
			l.Full[b].HS.ULabel = tree.Label{Tin: l.Full[a].HS.ULabel.Tin + 1}
		}),
		"self-targeted handshake": mutated(func(l *core.ExLocal, self, a, _ int) {
			l.Full[self].HS = l.Full[a].HS
		}),
	}
}

// TestDecoderRejectsInconsistentHandshakes: each inconsistent section is
// refused by an error naming the node and the tree.
func TestDecoderRejectsInconsistentHandshakes(t *testing.T) {
	for name, blob := range inconsistentExBlobs(t) {
		_, err := UnmarshalScheme(blob)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("node %d:", inconsistentNode)) || !strings.Contains(err.Error(), "tree") {
			t.Errorf("%s: got %v, want an error naming node %d and the tree", name, err, inconsistentNode)
		}
	}
}

// inconsistentS6Blobs are StretchSix snapshots one invariant away from a
// valid one: the node's dictionary gives a name an address that an
// earlier node's gives differently, or holds a name outside [0, n). A
// restored plane keeps one address per name, so it could not give
// either section back; the decoder must refuse both.
func inconsistentS6Blobs(t testing.TB) map[string][]byte {
	planes, _ := testPlanes(t, 16, 21)
	plane := planes["stretch6"]
	_, local, err := core.Decomposer(plane)
	if err != nil {
		t.Fatal(err)
	}
	first := local(0).S6.Entries[0].Name // held by node 0, so interned first there
	return map[string][]byte{
		"two addresses for one name": mutatedBlob(t, plane, func(ls *core.LocalState) {
			i := slices.IndexFunc(ls.S6.Entries, func(e core.S6Entry) bool { return e.Name == first })
			if i < 0 {
				t.Fatalf("node %d does not hold name %d", inconsistentNode, first)
			}
			ls.S6.Entries[i].Label.TreeLabel.Tin++
		}),
		"name outside the universe": mutatedBlob(t, plane, func(ls *core.LocalState) {
			ls.S6.Entries = append(ls.S6.Entries, core.S6Entry{Name: int32(plane.Graph().N())})
		}),
	}
}

// TestDecoderRejectsInconsistentDictionaries: each inconsistent section
// is refused by an error naming the node and the name.
func TestDecoderRejectsInconsistentDictionaries(t *testing.T) {
	for name, blob := range inconsistentS6Blobs(t) {
		_, err := UnmarshalScheme(blob)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("node %d:", inconsistentNode)) || !strings.Contains(err.Error(), "name") {
			t.Errorf("%s: got %v, want an error naming node %d and the name", name, err, inconsistentNode)
		}
	}
}

// FuzzUnmarshalScheme: arbitrary bytes must error cleanly — never
// panic, and never allocate beyond O(len(input)) (the decoder's count
// guards). A successful decode must re-encode to a fixed point,
// encode(decode(encode(decode(x)))) == encode(decode(x)), so the
// in-memory form loses nothing it was given.
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
		once, err := MarshalScheme(dep)
		if err != nil {
			t.Fatalf("decoded deployment does not re-encode: %v", err)
		}
		again, err := UnmarshalScheme(once)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		twice, err := MarshalScheme(again)
		if err != nil {
			t.Fatalf("re-decoded deployment does not re-encode: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixed point: %d bytes, then %d", len(once), len(twice))
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

package wire

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
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
	for _, blob := range rejectCorpus(f) {
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Add([]byte("RTWF"))
	f.Add([]byte("RTWF\x01\x01\x01\xff\xff\xff\xff\xff\xff\xff\xff\x7f"))
}

// rejectNode is the node whose section the per-node blobs of
// testdata/reject break.
const rejectNode = 3

// rejectWant lists every blob under testdata/reject with what its
// refusal must say. Each is a snapshot of testPlanes(16, 21) one check
// away from valid: a per-node blob breaks rejectNode's section and must
// be refused by an error naming that node; a shared one breaks the O(1)
// parameters. The blobs were written once, from the decoder's previous
// in-memory form, and are never regenerated: they pin that the decoder
// still refuses what it refused.
var rejectWant = map[string][]string{
	"exstretch-two-labels.rtwf":     {"node 3", "tree"},
	"exstretch-two-vlabels.rtwf":    {"node 3", "tree", "differs"},
	"exstretch-partial-block.rtwf":  {"node 3", "whole blocks"},
	"exstretch-self-handshake.rtwf": {"node 3", "tree"},
	"exstretch-dict-key.rtwf":       {"node 3", "dictionary"},
	"exstretch-k1.rtwf":             {"K >= 2"},
	"stretch6-two-addresses.rtwf":   {"node 3", "name"},
	"stretch6-name-outside.rtwf":    {"node 3", "name"},
	"stretch6-block-holders.rtwf":   {"node 3", "block holders"},
	"stretch6-dict-order.rtwf":      {"node 3", "ascending"},
	"rtz-centers.rtwf":              {"node 3", "centers"},
	"rtz-direct-order.rtwf":         {"node 3", "ascending"},
	"polystretch-k1.rtwf":           {"K >= 2"},
	"polystretch-levels0.rtwf":      {"level"},
	"polystretch-home.rtwf":         {"node 3", "home"},
	"hop-member-order.rtwf":         {"node 3", "sorted"},
	"exstretch-hop-order.rtwf":      {"node 3", "sorted"},
	"polystretch-tree-order.rtwf":   {"node 3", "sorted"},
	"polystretch-dict-key.rtwf":     {"node 3", "dictionary", "ascending"},
	"polystretch-home-tree.rtwf":    {"node 3", "home", "membership"},
}

// rejectCorpus reads every blob under testdata/reject.
func rejectCorpus(t testing.TB) map[string][]byte {
	files, err := filepath.Glob(filepath.Join("testdata", "reject", "*.rtwf"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(files))
	for _, path := range files {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(path)] = blob
	}
	return out
}

// checkRejected demands that each named blob is refused with an error
// carrying every substring rejectWant lists for it.
func checkRejected(t *testing.T, corpus map[string][]byte, files ...string) {
	t.Helper()
	for _, name := range files {
		blob, ok := corpus[name]
		if !ok {
			t.Errorf("%s: missing from testdata/reject", name)
			continue
		}
		_, err := UnmarshalScheme(blob)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		for _, want := range rejectWant[name] {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: got %v, want an error mentioning %q", name, err, want)
			}
		}
	}
}

// TestDecoderRejectsCorpus: every blob under testdata/reject is listed in
// rejectWant and refused as it says.
func TestDecoderRejectsCorpus(t *testing.T) {
	corpus := rejectCorpus(t)
	if len(corpus) != len(rejectWant) {
		t.Errorf("testdata/reject holds %d blobs, rejectWant lists %d", len(corpus), len(rejectWant))
	}
	for name := range corpus {
		if _, ok := rejectWant[name]; !ok {
			t.Errorf("%s: not listed in rejectWant", name)
		}
	}
	files := make([]string, 0, len(rejectWant))
	for name := range rejectWant {
		files = append(files, name)
	}
	sort.Strings(files)
	checkRejected(t, corpus, files...)
}

// TestDecoderRejectsInconsistentHandshakes: an ExStretch section whose
// handshakes carry two of the node's labels in one tree, whose own-name
// full entry carries a handshake, or that gives a (tree, name) a label
// an earlier section gives differently, could not come back out of a
// restored plane, which keeps one label per (tree, name) in its store
// and no handshake for a node's own name; each is refused naming the
// node and the tree. Nor could one whose full entries are not whole
// blocks, which the plane keeps as one run per held block.
func TestDecoderRejectsInconsistentHandshakes(t *testing.T) {
	checkRejected(t, rejectCorpus(t), "exstretch-two-labels.rtwf", "exstretch-self-handshake.rtwf",
		"exstretch-two-vlabels.rtwf", "exstretch-partial-block.rtwf")
}

// TestDecoderRejectsInconsistentDictionaries: a StretchSix section that
// gives a name an address an earlier node gives differently, or holds a
// name outside [0, n), could not come back out of a plane that keeps one
// address per name; each is refused naming the node and the name.
func TestDecoderRejectsInconsistentDictionaries(t *testing.T) {
	checkRejected(t, rejectCorpus(t), "stretch6-two-addresses.rtwf", "stretch6-name-outside.rtwf")
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

package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"rtroute/internal/codec"
	"rtroute/internal/core"
	"rtroute/internal/graph"
	"rtroute/internal/parallel"
	"rtroute/internal/sim"
)

// MarshalScheme encodes a built forwarding plane as a self-contained
// snapshot: envelope, network fabric, naming, O(1) shared parameters,
// then one length-prefixed section per node holding exactly that node's
// tables, as the scheme's own section codec writes them. It accepts
// what core.Sections does: the three TINN schemes, the core substrate
// planes and a Deployment.
func MarshalScheme(p sim.Plane) ([]byte, error) {
	blob, _, err := MarshalSchemeSizes(p)
	return blob, err
}

// MarshalSchemeSizes is MarshalScheme returning, alongside the blob,
// each node's section length in bytes — the same numbers NodeSizes
// reports, without encoding the scheme twice.
func MarshalSchemeSizes(p sim.Plane) ([]byte, []int, error) {
	st, encode, err := core.Sections(p)
	if err != nil {
		return nil, nil, err
	}
	e := &encoder{}
	e.envelope(blobScheme, st.Kind)
	encodeShared(e, st)
	sizes := encodeSections(e, st.Graph.N(), encode)
	return e.Buf, sizes, nil
}

// NodeSizes returns the encoded size in bytes of every node's section —
// the empirical per-node space bound, excluding the shared envelope
// (graph, naming, parameters), which is the network's and the model's
// "global knowledge", not routing state.
func NodeSizes(p sim.Plane) ([]int, error) {
	st, encode, err := core.Sections(p)
	if err != nil {
		return nil, err
	}
	return encodeSections(nil, st.Graph.N(), encode), nil
}

// sectionWindow is how many nodes per worker are encoded between two
// stitches. It bounds what is live beside the blob to one window of
// section bodies, whatever n is.
const sectionWindow = 32

// sectionEncoders keeps encodeSections' worker buffers, grown to a
// window of sections, for the next call.
var sectionEncoders = sync.Pool{New: func() any { return new(codec.Encoder) }}

// encodeSections encodes every node's section on all cores and returns
// the section lengths. Each worker appends the bodies it encodes to its
// own buffer, reused across windows and calls; after each window of
// nodes the bodies are stitched into blob in node order, each behind its
// length, so the bytes do not depend on the worker count. blob == nil
// measures without keeping anything.
func encodeSections(blob *encoder, n int, encode func(*codec.Encoder, graph.NodeID)) []int {
	workers := parallel.Workers(n, 0)
	encs := make([]*codec.Encoder, workers)
	for w := range encs {
		encs[w] = sectionEncoders.Get().(*codec.Encoder)
		encs[w].Buf = encs[w].Buf[:0]
	}
	type span struct{ worker, off, end int }
	window := workers * sectionWindow
	spans := make([]span, window)
	sizes := make([]int, n)
	for lo := 0; lo < n; lo += window {
		hi := min(lo+window, n)
		_ = parallel.ForEachWorker(hi-lo, workers, func(w, i int) error {
			e := encs[w]
			off := len(e.Buf)
			encode(e, graph.NodeID(lo+i))
			spans[i] = span{worker: w, off: off, end: len(e.Buf)}
			return nil
		})
		sectionBytes := 0
		for i, sp := range spans[:hi-lo] {
			sizes[lo+i] = sp.end - sp.off
			sectionBytes += sp.end - sp.off
			if blob != nil {
				blob.U(uint64(sp.end - sp.off))
				blob.Buf = append(blob.Buf, encs[sp.worker].Buf[sp.off:sp.end]...)
			}
		}
		for w := range encs {
			encs[w].Buf = encs[w].Buf[:0]
		}
		if blob != nil && lo == 0 {
			// One reservation from the first window's mean section, in
			// place of a chain of grow-and-copy steps.
			perNode := sectionBytes/(hi-lo) + binary.MaxVarintLen32
			blob.Buf = slices.Grow(blob.Buf, perNode*(n-hi)*21/20)
		}
	}
	for _, e := range encs {
		sectionEncoders.Put(e)
	}
	return sizes
}

// SectionDiff compares two planes of one kind over n nodes section by
// section, given their section encoders, and returns the lowest node
// whose sections differ, or -1 when every pair agrees. Pairs are encoded
// on all cores into each worker's two reused buffers, compared and
// dropped, so nothing but the pair in hand is live. A section decodes
// back to exactly the tables it encoded, so equal bytes are equal tables.
func SectionDiff(n int, a, b func(*codec.Encoder, graph.NodeID)) int {
	encs := make([][2]codec.Encoder, parallel.Workers(n, 0))
	var mu sync.Mutex
	first := -1
	_ = parallel.ForEachWorker(n, 0, func(w, v int) error { // never fails: every pair is compared
		ea, eb := &encs[w][0], &encs[w][1]
		ea.Buf, eb.Buf = ea.Buf[:0], eb.Buf[:0]
		a(ea, graph.NodeID(v))
		b(eb, graph.NodeID(v))
		if !bytes.Equal(ea.Buf, eb.Buf) {
			mu.Lock()
			if first < 0 || v < first {
				first = v
			}
			mu.Unlock()
		}
		return nil
	})
	return first
}

// SnapshotInfo is what PeekSnapshot reads from a scheme blob's preamble:
// enough to say what the snapshot is before paying for the full decode.
type SnapshotInfo struct {
	Version uint64
	Kind    core.Kind
	Nodes   int
}

// PeekSnapshot reads a snapshot's envelope and node count without
// decoding the graph or any table. A version mismatch still reports the
// blob's version alongside an error wrapping ErrVersion, so callers can
// tell "snapshot from another release" apart from corruption.
func PeekSnapshot(data []byte) (SnapshotInfo, error) {
	var info SnapshotInfo
	d := &decoder{Decoder: codec.Decoder{Data: data}}
	ver, err := d.preamble()
	if err != nil {
		return info, err
	}
	info.Version = ver
	if ver != Version {
		return info, fmt.Errorf("wire: %w: blob has version %d, this build reads %d", ErrVersion, ver, Version)
	}
	bt, err := d.Byte1()
	if err != nil {
		return info, err
	}
	if bt != blobScheme {
		return info, d.Fail("blob type %d is not a scheme snapshot", bt)
	}
	k, err := d.Byte1()
	if err != nil {
		return info, err
	}
	info.Kind = core.Kind(k)
	nu, err := d.U()
	if err != nil {
		return info, err
	}
	if nu > codec.MaxNodes {
		return info, d.Fail("node count %d exceeds limit", nu)
	}
	info.Nodes = int(nu)
	return info, nil
}

// UnmarshalScheme decodes a scheme snapshot and restores it as a
// Deployment, recording each node's encoded size. Restore streams: each
// section is decoded straight into its node's tables by core.Restore
// before the next is read.
func UnmarshalScheme(data []byte) (*core.Deployment, error) {
	d := &decoder{Decoder: codec.Decoder{Data: data}}
	kind, err := d.envelope(blobScheme)
	if err != nil {
		return nil, err
	}
	st, err := decodeShared(d, kind)
	if err != nil {
		return nil, err
	}
	sizes := make([]int, st.Graph.N())
	dep, err := core.Restore(st, func(v graph.NodeID) ([]byte, error) {
		size, err := d.Count(1)
		if err != nil {
			return nil, err
		}
		if size > d.Remaining() {
			return nil, d.Fail("node %d section length %d exceeds remaining input", v, size)
		}
		sizes[v] = size
		d.Off += size
		return d.Data[d.Off-size : d.Off], nil
	})
	if err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	dep.SetEncodedSizes(sizes)
	return dep, nil
}

// --- shared section ---

func encodeShared(e *encoder, st *core.SchemeState) {
	n := st.Graph.N()
	e.U(uint64(n))
	for _, nm := range st.Names {
		e.U(uint64(nm))
	}
	e.graph(st.Graph)
	e.U(uint64(st.K))
	e.U(uint64(st.Levels))
	e.B(st.ViaSource)
	e.B(st.DirectReturn)
}

func decodeShared(d *decoder, kind core.Kind) (*core.SchemeState, error) {
	nu, err := d.U()
	if err != nil {
		return nil, err
	}
	if nu < 2 || nu > codec.MaxNodes {
		return nil, d.Fail("node count %d outside [2,%d]", nu, codec.MaxNodes)
	}
	n := int(nu)
	if n > d.Remaining() {
		return nil, d.Fail("node count %d exceeds remaining input", n)
	}
	st := &core.SchemeState{Kind: kind, Names: make([]int32, n)}
	for v := 0; v < n; v++ {
		nm, err := d.U()
		if err != nil {
			return nil, err
		}
		if nm >= uint64(n) {
			return nil, d.Fail("name %d outside [0,%d)", nm, n)
		}
		st.Names[v] = int32(nm)
	}
	if st.Graph, err = d.graph(n); err != nil {
		return nil, err
	}
	k, err := d.U()
	if err != nil {
		return nil, err
	}
	lv, err := d.U()
	if err != nil {
		return nil, err
	}
	if k > uint64(n) || lv > uint64(codec.MaxNodes) {
		return nil, d.Fail("implausible parameters k=%d levels=%d", k, lv)
	}
	st.K, st.Levels = int(k), int(lv)
	if st.ViaSource, err = d.B(); err != nil {
		return nil, err
	}
	if st.DirectReturn, err = d.B(); err != nil {
		return nil, err
	}
	return st, nil
}

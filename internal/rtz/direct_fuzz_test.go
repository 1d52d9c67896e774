package rtz_test

import (
	"encoding/binary"
	"math"
	"testing"

	"rtroute/internal/codec"
	"rtroute/internal/core"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/rtz"
)

// collider returns the next key after k, wrapping within the
// non-negative int32s, whose two filter bits are k's: a key the filter
// cannot tell from k.
func collider(k int32) int32 {
	m := rtz.FilterMask(k)
	for c := k; ; {
		if c == math.MaxInt32 {
			c = 0
		} else {
			c++
		}
		if rtz.FilterMask(c) == m {
			return c
		}
	}
}

// FuzzDirectTable: a table's direct entries, the filter in front of the
// probe included, answer exactly like a map, at every stored key, at
// the keys beside each (negative and overflowing ones too) and at keys
// whose filter bits equal a stored key's. The destination sets are
// drawn from the input, with 0, MaxInt32 and stored keys that collide
// in the filter added by the flags. Three paths build the table and
// each is checked: CompileDirect on a fresh table; a repair's recompile
// of a table that held a third of the keys, a third on stale ports and
// keys it must drop; and a section encode and restore of the table. A
// false negative in the filter shows as a stored key that misses. Run
// it with
//
//	go test ./internal/rtz -run '^$' -fuzz FuzzDirectTable
func FuzzDirectTable(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f, 1, 0, 0, 0}, uint8(7))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4}, uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, flags uint8) {
		want := make(map[int32]int32)
		var keys []int32
		add := func(k int32) {
			if _, ok := want[k]; !ok {
				want[k] = int32(len(keys))*7 - 3
				keys = append(keys, k)
			}
		}
		if flags&1 != 0 {
			add(0)
		}
		if flags&2 != 0 {
			add(math.MaxInt32)
		}
		for i := 0; i+4 <= len(raw) && len(keys) < 64; i += 4 {
			add(int32(binary.LittleEndian.Uint32(raw[i:]) & math.MaxInt32))
		}
		// A collider costs a few thousand hashes to find: take them for
		// the first few keys only, so an input runs in well under a
		// millisecond.
		drawn := min(len(keys), 8)
		probes := []int32{0, math.MaxInt32, -1, math.MinInt32}
		for _, k := range keys[:drawn] {
			c := collider(k)
			if flags&4 != 0 {
				add(c)
			}
			probes = append(probes, c)
		}
		for _, k := range keys {
			probes = append(probes, k-1, k, k+1) // MaxInt32+1 wraps negative
		}
		check := func(path string, tab *rtz.Table) {
			t.Helper()
			for _, k := range probes {
				p, ok := tab.DirectPort(k)
				if wp, wok := want[k]; ok != wok || p != wp {
					t.Fatalf("%s: DirectPort(%d) = (%d, %v), map has (%d, %v)", path, k, p, ok, wp, wok)
				}
			}
			count := 0
			tab.DirectEntries(func(graph.NodeID, graph.PortID) { count++ })
			if count != len(want) {
				t.Fatalf("%s: %d entries, map has %d", path, count, len(want))
			}
		}

		fresh := rtz.Table{}
		fresh.CompileDirect(len(keys), func(i int) graph.NodeID { return keys[i] }, func(i int) graph.PortID { return want[keys[i]] })
		check("CompileDirect", &fresh)

		// The repair: the old table holds keys[i] for i%3 == 0 on their
		// ports, i%3 == 1 on stale ones, and keys absent from the map;
		// the recompile drops all but the first and adds the other two
		// thirds.
		var oldDst, addDst []graph.NodeID
		var oldPort, addPort []graph.PortID
		drop := make(map[int32]bool)
		for i, k := range keys {
			switch i % 3 {
			case 0:
				oldDst, oldPort = append(oldDst, k), append(oldPort, want[k])
			case 1:
				oldDst, oldPort = append(oldDst, k), append(oldPort, want[k]+1)
				fallthrough
			default:
				addDst, addPort = append(addDst, k), append(addPort, want[k])
				drop[k] = true
			}
			if _, ok := want[k^1]; !ok { // k^1 of a non-negative key is non-negative
				oldDst, oldPort = append(oldDst, k^1), append(oldPort, -1)
				drop[k^1] = true
			}
		}
		var old rtz.Table
		old.CompileDirect(len(oldDst), func(i int) graph.NodeID { return oldDst[i] }, func(i int) graph.PortID { return oldPort[i] })
		check("repair recompile", rtz.Recompiled(&old, func(y graph.NodeID) bool { return drop[y] }, addDst, addPort))

		// The section codec: node 0 of a two-node substrate holds the
		// table; restore decodes it into a new one.
		sub, err := rtz.AssembleScheme(graph.New(2), []*rtz.Table{&fresh, {Self: 1}}, make([]rtz.Label, 2))
		if err != nil {
			t.Fatal(err)
		}
		plane, err := core.NewRTZPlane(sub, names.Identity(2))
		if err != nil {
			t.Fatal(err)
		}
		st, encode, err := core.Sections(plane)
		if err != nil {
			t.Fatal(err)
		}
		dep, err := core.Restore(st, func(v graph.NodeID) ([]byte, error) {
			var e codec.Encoder
			encode(&e, v)
			return e.Buf, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		check("decode", dep.Scheme().(*core.RTZPlane).Substrate().Tables[0])
	})
}

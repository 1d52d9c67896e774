// Package sealed provides the small immutable open-addressed lookup
// tables the forwarding hot paths read: non-negative int32 keys
// (node ids, TINN names, port labels) hashed into a power-of-two
// segment with linear probing at load factor <= 1/2, so a lookup is one
// or two cache lines instead of a Go map traversal. Tables are compiled
// once, straight from a list of entries, and never mutated — the same
// build-then-seal discipline as the graph's CSR index. A changed table is
// a new one, compiled over the new entries.
package sealed

import "math/bits"

// Hash spreads an int32 id (Knuth multiplicative hash with an xor fold
// so the low bits used by the mask are well mixed). Any bit pattern is
// valid input; Table keys are additionally required to be non-negative
// because -1 is the empty-slot sentinel.
func Hash(v int32) uint32 {
	h := uint32(v) * 2654435761
	return h ^ h>>15
}

// Table is an immutable open-addressed map. The zero value is an empty
// table: every Get misses.
//
// Only the 4-byte keys pay for the load factor. The values sit densely,
// in slot order, so a value's position is the number of occupied slots
// before its own: the rank of its slot in an occupancy bitmap, one
// popcount away from a per-64-slots running count. A table of wide
// values (a 48-byte rtz.Label) so costs 8-16 bytes of keys plus one
// value per entry instead of 2-4 values per entry. The bitmap and its
// counts are a sixteenth the size of the keys and stay cached, so a hit
// still waits on two cache lines, the key's and the value's, and the
// value's address does not wait for the key's load.
type Table[V any] struct {
	keys []int32 // -1 marks an empty slot
	occ  []group // occupancy of slots 64g .. 64g+63
	vals []V     // exactly one per entry, in slot order
}

type group struct {
	bits uint64 // bit j set: slot 64g+j is occupied
	rank uint32 // occupied slots in all earlier groups
}

// CompileFunc builds a table of n entries, the i-th with key key(i) and
// value val(i), straight from wherever the caller holds them: no builder
// map in between. Keys must be distinct and non-negative. Each key is
// placed once, its slot kept aside; each value goes to that slot's rank.
func CompileFunc[V any](n int, key func(i int) int32, val func(i int) V) Table[V] {
	t := newTable[V](n)
	slots := make([]uint32, n)
	for e := range slots {
		slots[e] = t.place(key(e))
	}
	for g := 1; g < len(t.occ); g++ {
		t.occ[g].rank = t.occ[g-1].rank + uint32(bits.OnesCount64(t.occ[g-1].bits))
	}
	for e, i := range slots {
		g := &t.occ[i>>6]
		t.vals[int(g.rank)+bits.OnesCount64(g.bits&(1<<(i&63)-1))] = val(e)
	}
	return t
}

// newTable sizes an empty table for n entries at load <= 1/2.
func newTable[V any](n int) Table[V] {
	if n == 0 {
		return Table[V]{}
	}
	size := 2
	for size < 2*n {
		size <<= 1
	}
	t := Table[V]{keys: make([]int32, size), occ: make([]group, (size+63)/64), vals: make([]V, n)}
	for i := range t.keys {
		t.keys[i] = -1
	}
	return t
}

// place puts key k in its slot, marks the slot occupied and returns it.
func (t *Table[V]) place(k int32) uint32 {
	if k < 0 {
		panic("sealed: negative key")
	}
	mask := uint32(len(t.keys) - 1)
	i := Hash(k) & mask
	for ; t.keys[i] >= 0; i = (i + 1) & mask {
		if t.keys[i] == k {
			panic("sealed: duplicate key")
		}
	}
	t.keys[i] = k
	t.occ[i>>6].bits |= 1 << (i & 63)
	return i
}

// Len returns the number of entries.
func (t *Table[V]) Len() int { return len(t.vals) }

// Get returns the value stored under k. Negative keys are never stored
// (CompileFunc rejects them) and always miss — they must not be compared
// against the -1 empty-slot sentinel.
func (t *Table[V]) Get(k int32) (V, bool) {
	if t.keys == nil || k < 0 {
		var zero V
		return zero, false
	}
	mask := uint32(len(t.keys)) - 1
	for i := Hash(k) & mask; ; i = (i + 1) & mask {
		switch kk := t.keys[i]; {
		case kk == k:
			g := &t.occ[i>>6]
			return t.vals[int(g.rank)+bits.OnesCount64(g.bits&(1<<(i&63)-1))], true
		case kk < 0:
			var zero V
			return zero, false
		}
	}
}

// Range calls fn for every entry, in unspecified order.
func (t *Table[V]) Range(fn func(k int32, v V)) {
	pos := 0
	for _, k := range t.keys {
		if k >= 0 {
			fn(k, t.vals[pos])
			pos++
		}
	}
}

// Index maps each of a set of distinct non-negative keys to its position
// in the slice it was built from: the member→slot half of a structure
// that keeps its per-member values in parallel slices. The zero value is
// an empty index.
type Index struct {
	keys  []int32 // the caller's slice, in its order
	slots []int32 // position into keys, -1 marks an empty slot
}

// NewIndex indexes keys, which it retains and which must not change
// afterwards. When keys is exactly 0..len-1 in order the index is the
// identity and stores nothing beside the slice.
func NewIndex(keys []int32) Index {
	ix := Index{keys: keys}
	identity := true
	for i, k := range keys {
		if k < 0 {
			panic("sealed: negative key")
		}
		if k != int32(i) {
			identity = false
		}
	}
	if identity {
		return ix
	}
	size := 2
	for size < 2*len(keys) {
		size <<= 1
	}
	ix.slots = make([]int32, size)
	for i := range ix.slots {
		ix.slots[i] = -1
	}
	mask := uint32(size - 1)
	for pos, k := range keys {
		i := Hash(k) & mask
		for ix.slots[i] >= 0 {
			i = (i + 1) & mask
		}
		ix.slots[i] = int32(pos)
	}
	return ix
}

// Pos returns the position of k in the indexed slice, or -1 when k is
// not one of its keys (negative keys never are).
func (ix *Index) Pos(k int32) int {
	if ix.slots == nil {
		if uint32(k) < uint32(len(ix.keys)) {
			return int(k)
		}
		return -1
	}
	mask := uint32(len(ix.slots)) - 1
	for i := Hash(k) & mask; ; i = (i + 1) & mask {
		pos := ix.slots[i]
		if pos < 0 {
			return -1
		}
		if ix.keys[pos] == k {
			return int(pos)
		}
	}
}

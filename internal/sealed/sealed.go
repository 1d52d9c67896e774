// Package sealed provides the small immutable open-addressed lookup
// tables the forwarding hot paths read: non-negative int32 keys
// (node ids, TINN names, port labels) hashed into a power-of-two
// segment with linear probing at load factor <= 1/2, so a lookup is one
// or two cache lines instead of a Go map traversal. Tables are compiled
// once, straight from a list of entries, and never mutated — the same
// build-then-seal discipline as the graph's CSR index. A changed table is
// a new one, compiled over the new entries.
package sealed

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
// Each slot holds its key and its value side by side, so a hit is one
// probe: the slot that matches the key already holds the answer.
type Table[V any] struct {
	slots []slot[V]
	n     int
}

type slot[V any] struct {
	key int32 // -1 marks an empty slot
	val V
}

// CompileFunc builds a table of n entries, the i-th with key key(i) and
// value val(i), straight from wherever the caller holds them: no builder
// map in between. Keys must be distinct and non-negative.
func CompileFunc[V any](n int, key func(i int) int32, val func(i int) V) Table[V] {
	if n == 0 {
		return Table[V]{}
	}
	size := 2
	for size < 2*n {
		size <<= 1
	}
	t := Table[V]{slots: make([]slot[V], size), n: n}
	for i := range t.slots {
		t.slots[i].key = -1
	}
	mask := uint32(size - 1)
	for e := 0; e < n; e++ {
		k := key(e)
		if k < 0 {
			panic("sealed: negative key")
		}
		i := Hash(k) & mask
		for ; t.slots[i].key >= 0; i = (i + 1) & mask {
			if t.slots[i].key == k {
				panic("sealed: duplicate key")
			}
		}
		t.slots[i] = slot[V]{k, val(e)}
	}
	return t
}

// Len returns the number of entries.
func (t *Table[V]) Len() int { return t.n }

// Get returns the value stored under k. Negative keys are never stored
// (CompileFunc rejects them) and always miss — they must not be compared
// against the -1 empty-slot sentinel.
func (t *Table[V]) Get(k int32) (V, bool) {
	if t.slots == nil || k < 0 {
		var zero V
		return zero, false
	}
	mask := uint32(len(t.slots)) - 1
	for i := Hash(k) & mask; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.key == k || s.key < 0 {
			return s.val, s.key == k
		}
	}
}

// Range calls fn for every entry, in unspecified order.
func (t *Table[V]) Range(fn func(k int32, v V)) {
	for _, s := range t.slots {
		if s.key >= 0 {
			fn(s.key, s.val)
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

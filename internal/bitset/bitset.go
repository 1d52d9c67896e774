// Package bitset provides a dense fixed-capacity bit set used by the
// sparse-cover construction, where cluster-merging repeatedly asks
// "does cluster S intersect the growing set Y?" over thousands of
// clusters.
package bitset

import "math/bits"

// Set is a fixed-capacity bit set. The zero value is unusable; create
// with New.
type Set struct {
	words []uint64
}

// New returns a set with capacity for bits 0..n-1, initially empty.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64)}
}

// Add inserts i into the set.
func (s *Set) Add(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Has reports whether i is in the set.
func (s *Set) Has(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Rank returns the number of elements below i.
func (s *Set) Rank(i int) int {
	r := bits.OnesCount64(s.words[i>>6] & (1<<(uint(i)&63) - 1))
	for _, w := range s.words[:i>>6] {
		r += bits.OnesCount64(w)
	}
	return r
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// UnionWith adds every element of o to s.
func (s *Set) UnionWith(o *Set) {
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// Intersects reports whether s and o share any element.
func (s *Set) Intersects(o *Set) bool {
	for i, w := range o.words {
		if s.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Clear removes all elements.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// ForEach calls fn for each element in ascending order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi<<6 + b)
			w &= w - 1
		}
	}
}

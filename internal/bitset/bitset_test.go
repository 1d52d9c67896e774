package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddHasRemove(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Has(i) {
			t.Fatalf("fresh set has %d", i)
		}
		s.Add(i)
		if !s.Has(i) {
			t.Fatalf("Add(%d) did not stick", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 7 {
		t.Fatalf("Remove(64) failed: has=%v count=%d", s.Has(64), s.Count())
	}
}

func TestEmptyAndClear(t *testing.T) {
	s := New(100)
	if s.Count() != 0 {
		t.Fatal("new set not empty")
	}
	s.Add(42)
	if s.Count() != 1 {
		t.Fatal("set with one element does not count it")
	}
	s.Clear()
	if s.Has(42) || s.Count() != 0 {
		t.Fatal("Clear did not empty the set")
	}
}

func TestUnionIntersectsContains(t *testing.T) {
	a, b := New(200), New(200)
	a.Add(3)
	a.Add(150)
	b.Add(150)
	b.Add(199)
	if !a.Intersects(b) {
		t.Fatal("sets sharing 150 do not intersect")
	}
	b.Remove(150)
	if a.Intersects(b) {
		t.Fatal("disjoint sets intersect")
	}
	a.UnionWith(b)
	if !a.Has(199) || a.Count() != 3 {
		t.Fatalf("union wrong: count=%d", a.Count())
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(64)
	a.Add(10)
	c := a.Clone()
	c.Add(20)
	if a.Has(20) {
		t.Fatal("clone mutation leaked")
	}
	if !c.Has(10) {
		t.Fatal("clone lost element")
	}
}

func TestSliceAndForEachOrder(t *testing.T) {
	s := New(300)
	want := []int{5, 64, 65, 200, 299}
	for _, i := range []int{299, 5, 200, 64, 65} { // insert out of order
		s.Add(i)
	}
	got := s.Slice()
	if len(got) != len(want) {
		t.Fatalf("Slice = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice = %v, want %v", got, want)
		}
	}
}

func TestQuickAgainstMap(t *testing.T) {
	err := quick.Check(func(ops []uint16) bool {
		s := New(1 << 10)
		ref := map[int]bool{}
		for _, op := range ops {
			i := int(op) % (1 << 10)
			switch op % 3 {
			case 0:
				s.Add(i)
				ref[i] = true
			case 1:
				s.Remove(i)
				delete(ref, i)
			case 2:
				if s.Has(i) != ref[i] {
					return false
				}
			}
		}
		if s.Count() != len(ref) {
			return false
		}
		for _, i := range s.Slice() {
			if !ref[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCapBoundary(t *testing.T) {
	s := New(64)
	s.Add(63)
	if !s.Has(63) || s.Count() != 1 {
		t.Fatal("boundary bit 63 broken")
	}
}

// TestRank checks Rank(i), the count of elements below i, against a
// running count over every position of random sets spanning one to
// three words.
func TestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 63, 64, 65, 130, 192} {
		s := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				s.Add(i)
			}
		}
		below := 0
		for i := 0; i < n; i++ {
			if got := s.Rank(i); got != below {
				t.Fatalf("n=%d: Rank(%d) = %d, want %d", n, i, got, below)
			}
			if s.Has(i) {
				below++
			}
		}
	}
}

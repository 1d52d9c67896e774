package sealed

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// compileMap compiles every entry of m, in ascending key order.
func compileMap[V any](m map[int32]V) Table[V] {
	keys := slices.Sorted(maps.Keys(m))
	return CompileFunc(len(keys), func(i int) int32 { return keys[i] }, func(i int) V { return m[keys[i]] })
}

func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		m := make(map[int32]int64)
		for i := 0; i < rng.Intn(200); i++ {
			m[int32(rng.Intn(1<<20))] = rng.Int63()
		}
		tab := compileMap(m)
		if tab.Len() != len(m) {
			t.Fatalf("Len = %d, want %d", tab.Len(), len(m))
		}
		for k, v := range m {
			if got, ok := tab.Get(k); !ok || got != v {
				t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", k, got, ok, v)
			}
		}
		for i := 0; i < 100; i++ {
			k := int32(rng.Intn(1 << 21))
			want, wantOK := m[k]
			if got, ok := tab.Get(k); ok != wantOK || (ok && got != want) {
				t.Fatalf("Get(%d) = (%d, %v), map has (%d, %v)", k, got, ok, want, wantOK)
			}
		}
		seen := make(map[int32]int64)
		tab.Range(func(k int32, v int64) { seen[k] = v })
		if len(seen) != len(m) {
			t.Fatalf("Range visited %d entries, want %d", len(seen), len(m))
		}
	}
}

// TestDenseTableMatchesMap checks the inline layout, each slot a key
// beside its value, against its builder map entry for entry, with a
// wide value, at the sizes where the slot count doubles (2*len crossing
// a power of two leaves the slots at load exactly 1/2 or just above
// 1/4): the load stays in (1/4, 1/2], Len counts the entries, Get and
// Range agree with the map, and absent and negative keys miss.
func TestDenseTableMatchesMap(t *testing.T) {
	type wide struct{ a, b, c, d, e int64 }
	rng := rand.New(rand.NewSource(17))
	sizes := []int{1, 2, 3}
	for p := 4; p <= 1024; p <<= 1 {
		sizes = append(sizes, p-1, p, p+1)
	}
	for _, n := range sizes {
		m := make(map[int32]wide, n)
		for len(m) < n {
			k := int32(rng.Intn(4 * n))
			m[k] = wide{int64(k), rng.Int63(), rng.Int63(), rng.Int63(), int64(len(m))}
		}
		tab := compileMap(m)
		if len(tab.slots) < 2*n || len(tab.slots) >= 4*n+2 {
			t.Fatalf("n=%d: %d slots, want load in (1/4, 1/2]", n, len(tab.slots))
		}
		if tab.Len() != n {
			t.Fatalf("n=%d: Len %d", n, tab.Len())
		}
		for k := int32(-2); k < int32(4*n)+2; k++ { // -2 and -1 must miss
			want, wantOK := m[k]
			if got, ok := tab.Get(k); ok != wantOK || got != want {
				t.Fatalf("n=%d: Get(%d) = (%v, %v), map has (%v, %v)", n, k, got, ok, want, wantOK)
			}
		}
		seen := make(map[int32]wide, n)
		tab.Range(func(k int32, v wide) {
			if _, dup := seen[k]; dup {
				t.Fatalf("n=%d: Range visited key %d twice", n, k)
			}
			seen[k] = v
		})
		if len(seen) != n {
			t.Fatalf("n=%d: Range visited %d entries", n, len(seen))
		}
		for k, v := range m {
			if seen[k] != v {
				t.Fatalf("n=%d: Range gave %v for key %d, map has %v", n, seen[k], k, v)
			}
		}
	}
}

func TestGetNegativeKeyMisses(t *testing.T) {
	tab := compileMap(map[int32]int{0: 1, 7: 2})
	for _, k := range []int32{-1, -5, -1 << 30} {
		if v, ok := tab.Get(k); ok {
			t.Fatalf("Get(%d) = (%d, true), want miss: negative keys must not match the empty-slot sentinel", k, v)
		}
	}
}

func TestZeroTable(t *testing.T) {
	var tab Table[int]
	if tab.Len() != 0 {
		t.Fatal("zero table should be empty")
	}
	if _, ok := tab.Get(7); ok {
		t.Fatal("zero table returned a value")
	}
	tab.Range(func(int32, int) { t.Fatal("zero table ranged an entry") })
}

func TestCompileRejectsNegativeKeys(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative key accepted")
		}
	}()
	compileMap(map[int32]int{-1: 1})
}

// TestCompileFuncMatchesCompile: a table compiled from an entry list in
// random order answers every probe as the one compiled from the same
// entries in key order, and a repeated key is refused rather than stored
// twice.
func TestCompileFuncMatchesCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{0, 1, 63, 64, 65, 300} {
		keys := make([]int32, n)
		m := make(map[int32]int64, n)
		for i, k := range rng.Perm(4 * n)[:n] {
			keys[i] = int32(k)
			m[int32(k)] = rng.Int63()
		}
		got := CompileFunc(n, func(i int) int32 { return keys[i] }, func(i int) int64 { return m[keys[i]] })
		want := compileMap(m)
		if got.Len() != n {
			t.Fatalf("n=%d: Len %d", n, got.Len())
		}
		for k := int32(-1); k < int32(4*n)+1; k++ {
			gv, gok := got.Get(k)
			wv, wok := want.Get(k)
			if gv != wv || gok != wok {
				t.Fatalf("n=%d: Get(%d) = (%d, %v), the map compiles to (%d, %v)", n, k, gv, gok, wv, wok)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate key accepted")
		}
	}()
	CompileFunc(2, func(int) int32 { return 7 }, func(int) int { return 1 })
}

func TestIndexMatchesPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		var keys []int32
		if trial%4 == 0 { // the identity case: 0..len-1 in order
			for i := 0; i < rng.Intn(50); i++ {
				keys = append(keys, int32(i))
			}
		} else {
			for _, k := range rng.Perm(300)[:rng.Intn(200)] {
				keys = append(keys, int32(k))
			}
		}
		want := make(map[int32]int, len(keys))
		for i, k := range keys {
			want[k] = i
		}
		ix := NewIndex(keys)
		for k := int32(-3); k < 310; k++ {
			pos, ok := want[k]
			if !ok {
				pos = -1
			}
			if got := ix.Pos(k); got != pos {
				t.Fatalf("trial %d: Pos(%d) = %d, want %d", trial, k, got, pos)
			}
		}
	}
	var zero Index
	if zero.Pos(0) != -1 || zero.Pos(-1) != -1 {
		t.Fatal("zero index found a key")
	}
}

package blocks

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rtroute/internal/graph"
	"rtroute/internal/rtmetric"
)

// holds reports whether node w stores a block whose length-i prefix is τ.
func (a *Assignment) holds(w graph.NodeID, i int, tau int32) bool {
	for _, b := range a.Sets[w] {
		if a.U.BlockPrefix(b, i) == tau {
			return true
		}
	}
	return false
}

// holdsBlock reports whether node w stores block b.
func (a *Assignment) holdsBlock(w graph.NodeID, b BlockID) bool {
	for _, x := range a.Sets[w] {
		if x == b {
			return true
		}
	}
	return false
}

// maxSetSize returns max_v |S_v|, the quantity Lemma 1/4 bound by O(log n).
func (a *Assignment) maxSetSize() int {
	m := 0
	for _, s := range a.Sets {
		m = max(m, len(s))
	}
	return m
}

// avgSetSize returns the mean |S_v|.
func (a *Assignment) avgSetSize() float64 {
	total := 0
	for _, s := range a.Sets {
		total += len(s)
	}
	return float64(total) / float64(len(a.Sets))
}

func TestUniverseRadix(t *testing.T) {
	tests := []struct {
		n, k, wantQ int
	}{
		{36, 2, 6},
		{16, 2, 4},
		{17, 2, 5},
		{27, 3, 3},
		{28, 3, 4},
		{1000, 2, 32}, // 32^2 = 1024 >= 1000
		{1, 2, 1},
	}
	for _, tc := range tests {
		u := NewUniverse(tc.n, tc.k)
		if u.Q != tc.wantQ {
			t.Fatalf("NewUniverse(%d,%d).Q = %d, want %d", tc.n, tc.k, u.Q, tc.wantQ)
		}
		if pow(u.Q, u.K) < tc.n {
			t.Fatalf("q^k = %d < n = %d", pow(u.Q, u.K), tc.n)
		}
	}
}

func TestUniversePanics(t *testing.T) {
	for _, tc := range []struct {
		n, k int
	}{{10, 1}, {10, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewUniverse(%d,%d) did not panic", tc.n, tc.k)
				}
			}()
			NewUniverse(tc.n, tc.k)
		}()
	}
}

func TestDigitsAndPrefix(t *testing.T) {
	u := NewUniverse(36, 2) // q = 6, k = 2
	d := u.Digits(23)       // 23 = 3*6 + 5
	if d[0] != 3 || d[1] != 5 {
		t.Fatalf("Digits(23) = %v, want [3 5]", d)
	}
	if u.Prefix(23, 0) != 0 || u.Prefix(23, 1) != 3 || u.Prefix(23, 2) != 23 {
		t.Fatalf("Prefix(23, ·) = %d,%d,%d; want 0,3,23",
			u.Prefix(23, 0), u.Prefix(23, 1), u.Prefix(23, 2))
	}
	if u.BlockOf(23) != 3 {
		t.Fatalf("BlockOf(23) = %d, want 3", u.BlockOf(23))
	}
}

func TestDigitsRoundTrip(t *testing.T) {
	err := quick.Check(func(nameRaw uint16, kRaw uint8) bool {
		k := int(kRaw)%4 + 2
		n := 4096
		name := int32(int(nameRaw) % n)
		u := NewUniverse(n, k)
		d := u.Digits(name)
		if len(d) != k {
			return false
		}
		v := 0
		for _, dig := range d {
			if dig < 0 || dig >= u.Q {
				return false
			}
			v = v*u.Q + dig
		}
		return int32(v) == name
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPrefixConsistentWithDigits(t *testing.T) {
	u := NewUniverse(1000, 3)
	for name := int32(0); name < 1000; name += 37 {
		d := u.Digits(name)
		for i := 0; i <= u.K; i++ {
			want := 0
			for j := 0; j < i; j++ {
				want = want*u.Q + d[j]
			}
			if got := u.Prefix(name, i); got != int32(want) {
				t.Fatalf("Prefix(%d,%d) = %d, want %d", name, i, got, want)
			}
		}
	}
}

func TestBlockPrefixConsistency(t *testing.T) {
	u := NewUniverse(216, 3) // q = 6, k = 3, blocks are 2-digit words
	for name := int32(0); name < 216; name++ {
		b := u.BlockOf(name)
		for i := 0; i < u.K; i++ {
			if u.BlockPrefix(b, i) != u.Prefix(name, i) {
				t.Fatalf("σ^%d(B_%d) = %d != σ^%d(%d) = %d",
					i, b, u.BlockPrefix(b, i), i, name, u.Prefix(name, i))
			}
		}
	}
}

func TestNamesInBlock(t *testing.T) {
	u := NewUniverse(36, 2)
	if lo, hi := u.NamesInBlock(3); lo != 18 || hi != 24 {
		t.Fatalf("block 3 names = [%d, %d), want [18, 24)", lo, hi)
	}
	// Last block of a non-perfect-square n is short.
	u2 := NewUniverse(34, 2) // q = 6, block 5 holds 30..33
	if lo, hi := u2.NamesInBlock(5); lo != 30 || hi != 34 {
		t.Fatalf("short block names = [%d, %d), want [30, 34)", lo, hi)
	}
	// A block past the last name is empty.
	u3 := NewUniverse(95, 3) // q = 5, blocks 19..24 hold no name
	if lo, hi := u3.NamesInBlock(20); lo != hi {
		t.Fatalf("empty block names = [%d, %d), want an empty range", lo, hi)
	}
}

func TestMatchLen(t *testing.T) {
	u := NewUniverse(10000, 4) // q = 10
	tests := []struct {
		a, b int32
		want int
	}{
		{2357, 2357, 4},
		{2357, 2358, 3},
		{2357, 2300, 2},
		{2357, 2999, 1},
		{2357, 3357, 0},
	}
	for _, tc := range tests {
		if got := u.MatchLen(tc.a, tc.b); got != tc.want {
			t.Fatalf("MatchLen(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func newSpace(t testing.TB, seed int64, n, extra int) *rtmetric.Space {
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomSC(n, extra, 10, rng)
	return rtmetric.New(g, graph.AllPairs(g), nil)
}

// TestLemma1 verifies the two bullets of Lemma 1 (k = 2): every node
// finds every block type within its sqrt(n) neighborhood, and set sizes
// are O(log n). This regenerates the guarantee illustrated by Fig. 2.
func TestLemma1(t *testing.T) {
	space := newSpace(t, 11, 64, 256)
	rng := rand.New(rand.NewSource(12))
	a, err := Assign(space, 2, rng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	n := space.G.N()
	sizes := rtmetric.NeighborhoodSizes(n, 2)
	maxPrefix := a.U.Prefix(int32(n-1), 1)
	for v := 0; v < n; v++ {
		nbhd := space.Neighborhood(graph.NodeID(v), sizes[1])
		for tau := int32(0); tau <= maxPrefix; tau++ {
			found := false
			for _, w := range nbhd {
				if a.holds(w, 1, tau) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("no node in N(%d) holds block %d", v, tau)
			}
		}
	}
	// |S_v| = O(log n): with boost 4 the expectation is 4 ln n ≈ 17;
	// allow generous concentration slack.
	if m := a.maxSetSize(); m > 8*17 {
		t.Fatalf("max |S_v| = %d, implausibly large for O(log n)", m)
	}
}

// TestLemma4 verifies the hierarchical version for k = 3: every length-i
// prefix class is represented within N_i(v) for i = 1..k-1.
func TestLemma4(t *testing.T) {
	space := newSpace(t, 13, 64, 256)
	rng := rand.New(rand.NewSource(14))
	a, err := Assign(space, 3, rng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	n := space.G.N()
	sizes := rtmetric.NeighborhoodSizes(n, 3)
	for v := 0; v < n; v++ {
		for i := 1; i < 3; i++ {
			nbhd := space.Neighborhood(graph.NodeID(v), sizes[i])
			maxPrefix := a.U.Prefix(int32(n-1), i)
			for tau := int32(0); tau <= maxPrefix; tau++ {
				found := false
				for _, w := range nbhd {
					if a.holds(w, i, tau) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("level %d: no node in N_%d(%d) holds prefix %d", i, i, v, tau)
				}
			}
		}
	}
}

func TestAssignIncludesOwnBlock(t *testing.T) {
	space := newSpace(t, 15, 36, 108)
	rng := rand.New(rand.NewSource(16))
	a, err := Assign(space, 2, rng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < space.G.N(); v++ {
		if !a.holdsBlock(graph.NodeID(v), a.U.BlockOf(int32(v))) {
			t.Fatalf("node %d does not hold its own block (S'_u requirement, §3.3)", v)
		}
	}
}

func TestAssignWithNamePermutation(t *testing.T) {
	space := newSpace(t, 17, 49, 150)
	rng := rand.New(rand.NewSource(18))
	n := space.G.N()
	names := make([]int32, n)
	for i, p := range rng.Perm(n) {
		names[i] = int32(p)
	}
	a, err := Assign(space, 2, rng, Config{Names: names})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		if !a.holdsBlock(graph.NodeID(v), a.U.BlockOf(names[v])) {
			t.Fatalf("node %d does not hold the block of its own NAME %d", v, names[v])
		}
	}
}

func TestAssignDeterministicGivenSeed(t *testing.T) {
	space := newSpace(t, 19, 25, 75)
	a1, err := Assign(space, 2, rand.New(rand.NewSource(20)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Assign(space, 2, rand.New(rand.NewSource(20)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a1.Sets {
		if len(a1.Sets[v]) != len(a2.Sets[v]) {
			t.Fatalf("node %d set size differs across same-seed runs", v)
		}
		for i := range a1.Sets[v] {
			if a1.Sets[v][i] != a2.Sets[v][i] {
				t.Fatalf("node %d block %d differs across same-seed runs", v, i)
			}
		}
	}
}

func TestSetsAreSorted(t *testing.T) {
	space := newSpace(t, 21, 49, 150)
	a, err := Assign(space, 2, rand.New(rand.NewSource(22)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for v, set := range a.Sets {
		for i := 1; i < len(set); i++ {
			if set[i] < set[i-1] {
				t.Fatalf("node %d set not sorted: %v", v, set)
			}
		}
	}
}

// TestStoredPowersMatchLoop: Prefix and BlockPrefix divide by a power
// stored at NewUniverse time; every digit index a caller can pass —
// including one past either end of the word, which the experiments'
// prefix walks do reach — must give what the multiplication loop gives.
func TestStoredPowersMatchLoop(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{2, 2}, {17, 2}, {100, 3}, {1024, 2}, {1000, 4}, {5000, 5}} {
		u := NewUniverse(tc.n, tc.k)
		for _, name := range []int32{0, 1, int32(tc.n / 2), int32(tc.n - 1)} {
			for i := -1; i <= u.K+1; i++ {
				if got, want := u.Prefix(name, i), int32(int(name)/pow(u.Q, u.K-i)); got != want {
					t.Fatalf("n=%d k=%d: Prefix(%d, %d) = %d, loop says %d", tc.n, tc.k, name, i, got, want)
				}
				b := u.BlockOf(name)
				if got, want := u.BlockPrefix(b, i), int32(int(b)/pow(u.Q, u.K-1-i)); got != want {
					t.Fatalf("n=%d k=%d: BlockPrefix(%d, %d) = %d, loop says %d", tc.n, tc.k, b, i, got, want)
				}
			}
		}
		if u.NumBlocks() != pow(u.Q, u.K-1) {
			t.Fatalf("n=%d k=%d: NumBlocks = %d", tc.n, tc.k, u.NumBlocks())
		}
	}
}

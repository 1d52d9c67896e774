package rtmetric

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"rtroute/internal/graph"
)

func newSpace(t *testing.T, seed int64, n, extra int, maxW graph.Dist) *Space {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomSC(n, extra, maxW, rng)
	return New(g, graph.AllPairs(g), nil)
}

// less is the reference for Init_v's order: whether a ≺_v b in the
// total order of §2, first by roundtrip distance r(v,·), then by
// distance d(·,v) toward v, then by ID.
func (s *Space) less(v, a, b graph.NodeID) bool {
	ra, rb := s.M.R(v, a), s.M.R(v, b)
	if ra != rb {
		return ra < rb
	}
	da, db := s.M.FromSource(a)[v], s.M.FromSource(b)[v]
	if da != db {
		return da < db
	}
	return s.ids.ids[a] < s.ids.ids[b]
}

// order is the reference for Init_v over all n nodes: every node sorted
// by the comparator on (r(v,u), d(u,v), id(u)) read off v's two rows,
// with no packing and no selection. Every prefix the Space keeps must
// be its head.
func (s *Space) order(v graph.NodeID) []graph.NodeID {
	fwd, rev := s.M.FromSource(v), s.M.ToSink(v)
	ord := make([]graph.NodeID, s.G.N())
	for i := range ord {
		ord[i] = graph.NodeID(i)
	}
	slices.SortFunc(ord, func(a, b graph.NodeID) int {
		return cmp.Or(cmp.Compare(graph.RFromRows(fwd, rev, a), graph.RFromRows(fwd, rev, b)),
			cmp.Compare(rev[a], rev[b]), cmp.Compare(s.ids.ids[a], s.ids.ids[b]))
	})
	return ord
}

// ball returns Nhat_m(v) = {w : r(v,w) <= m}, the radius ball of §4.
// Row-oriented: one FromSource plus one ToSink fetch.
func (s *Space) ball(v graph.NodeID, m graph.Dist) []graph.NodeID {
	fwd, rev := s.M.FromSource(v), s.M.ToSink(v)
	var b []graph.NodeID
	for u := 0; u < s.G.N(); u++ {
		if graph.RFromRows(fwd, rev, graph.NodeID(u)) <= m {
			b = append(b, graph.NodeID(u))
		}
	}
	return b
}

func TestInitIsTotalOrderStartingAtV(t *testing.T) {
	s := newSpace(t, 1, 40, 120, 10)
	for v := 0; v < s.G.N(); v++ {
		ord := s.Neighborhood(graph.NodeID(v), s.G.N())
		if len(ord) != s.G.N() {
			t.Fatalf("Init_%d has %d entries, want %d", v, len(ord), s.G.N())
		}
		if ord[0] != graph.NodeID(v) {
			t.Fatalf("Init_%d starts at %d, want %d (r(v,v)=0 is unique minimum)", v, ord[0], v)
		}
		seen := make(map[graph.NodeID]bool)
		for _, u := range ord {
			if seen[u] {
				t.Fatalf("Init_%d repeats node %d", v, u)
			}
			seen[u] = true
		}
		// Strictly increasing under Less.
		for i := 0; i+1 < len(ord); i++ {
			if !s.less(graph.NodeID(v), ord[i], ord[i+1]) {
				t.Fatalf("Init_%d not sorted at position %d (%d vs %d)", v, i, ord[i], ord[i+1])
			}
		}
	}
}

func TestLessIsStrictTotalOrder(t *testing.T) {
	s := newSpace(t, 2, 25, 75, 7)
	n := s.G.N()
	for v := 0; v < n; v++ {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				la := s.less(graph.NodeID(v), graph.NodeID(a), graph.NodeID(b))
				lb := s.less(graph.NodeID(v), graph.NodeID(b), graph.NodeID(a))
				if a == b && (la || lb) {
					t.Fatalf("Less(%d; %d,%d): irreflexivity violated", v, a, b)
				}
				if a != b && la == lb {
					t.Fatalf("Less(%d; %d,%d): totality/antisymmetry violated (both %v)", v, a, b, la)
				}
			}
		}
	}
}

func TestLessTransitivity(t *testing.T) {
	s := newSpace(t, 3, 20, 60, 9)
	err := quick.Check(func(a, b, c uint8) bool {
		n := s.G.N()
		v := graph.NodeID(0)
		x, y, z := graph.NodeID(int(a)%n), graph.NodeID(int(b)%n), graph.NodeID(int(c)%n)
		if s.less(v, x, y) && s.less(v, y, z) {
			return s.less(v, x, z)
		}
		return true
	}, &quick.Config{MaxCount: 5000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNeighborhoodMonotone(t *testing.T) {
	s := newSpace(t, 5, 36, 100, 4)
	v := graph.NodeID(7)
	n6 := s.Neighborhood(v, 6)
	n12 := s.Neighborhood(v, 12)
	if len(n6) != 6 || len(n12) != 12 {
		t.Fatalf("sizes: %d, %d; want 6, 12", len(n6), len(n12))
	}
	for i := range n6 {
		if n6[i] != n12[i] {
			t.Fatal("smaller neighborhood is not a prefix of the larger one")
		}
	}
}

func TestNeighborhoodRoundtripDominance(t *testing.T) {
	// Every node inside N(v) must be roundtrip-closer-or-equal to v than
	// every node outside — the fact the stretch-6 analysis leans on
	// (r(s,w) <= r(s,t) when w ∈ N(s), t ∉ N(s)).
	s := newSpace(t, 6, 32, 96, 8)
	for v := 0; v < s.G.N(); v++ {
		size := 6
		nbhd := s.Neighborhood(graph.NodeID(v), size)
		inSet := make(map[graph.NodeID]bool, size)
		var maxIn graph.Dist
		for _, u := range nbhd {
			inSet[u] = true
			if r := s.M.R(graph.NodeID(v), u); r > maxIn {
				maxIn = r
			}
		}
		for u := 0; u < s.G.N(); u++ {
			if !inSet[graph.NodeID(u)] {
				if r := s.M.R(graph.NodeID(v), graph.NodeID(u)); r < maxIn {
					t.Fatalf("node %d outside N(%d) has r=%d < max inside %d", u, v, r, maxIn)
				}
			}
		}
	}
}

// TestContains: u is in N(v) of a given size exactly when the reference
// order ranks it below that size — the membership the paper's proofs
// read — for sizes inside the kept prefix and past it.
func TestContains(t *testing.T) {
	s := newSpace(t, 7, 20, 60, 3)
	for v := graph.NodeID(0); v < graph.NodeID(s.G.N()); v++ {
		ref := s.order(v)
		for _, size := range []int{1, 5, s.size, s.size + 1, s.G.N()} {
			nbhd := s.Neighborhood(v, size)
			for i, u := range ref {
				if slices.Contains(nbhd, u) != (i < size) {
					t.Fatalf("N(%d) of size %d: membership of %d (reference rank %d) is %v", v, size, u, i, !(i < size))
				}
			}
		}
	}
}

func TestBall(t *testing.T) {
	s := newSpace(t, 8, 24, 72, 6)
	for v := 0; v < s.G.N(); v += 5 {
		for _, m := range []graph.Dist{0, 3, 10, 1 << 40} {
			ball := s.ball(graph.NodeID(v), m)
			inBall := make(map[graph.NodeID]bool)
			for _, u := range ball {
				inBall[u] = true
				if s.M.R(graph.NodeID(v), u) > m {
					t.Fatalf("ball(%d,%d) contains %d with r=%d", v, m, u, s.M.R(graph.NodeID(v), u))
				}
			}
			for u := 0; u < s.G.N(); u++ {
				if !inBall[graph.NodeID(u)] && s.M.R(graph.NodeID(v), graph.NodeID(u)) <= m {
					t.Fatalf("ball(%d,%d) misses %d", v, m, u)
				}
			}
		}
	}
}

func TestBallContainsSelf(t *testing.T) {
	s := newSpace(t, 9, 10, 30, 2)
	ball := s.ball(2, 0)
	if len(ball) != 1 || ball[0] != 2 {
		t.Fatalf("Ball(v, 0) = %v, want [v]", ball)
	}
}

func TestTieBreakByID(t *testing.T) {
	// Symmetric 4-cycle (bidirected): many roundtrip ties; the order must
	// fall back to IDs deterministically.
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID((i+1)%4), 1)
		g.MustAddEdge(graph.NodeID((i+1)%4), graph.NodeID(i), 1)
	}
	m := graph.AllPairs(g)
	s := New(g, m, nil)
	ord := s.Neighborhood(0, 4)
	// r(0,1) = r(0,3) = 2; d(1,0) = d(3,0) = 1; tie broken by ID: 1 < 3.
	if !(ord[0] == 0 && ord[1] == 1) {
		t.Fatalf("Init_0 = %v; want 0 then 1 (ID tie-break)", ord)
	}

	// With reversed IDs, 3 must now precede 1.
	ids := []int32{0, 3, 2, 1}
	s2 := New(g, m, ids)
	ord2 := s2.Neighborhood(0, 4)
	if !(ord2[0] == 0 && ord2[1] == 3) {
		t.Fatalf("Init_0 with reversed ids = %v; want 0 then 3", ord2)
	}
}

func TestNeighborhoodSizes(t *testing.T) {
	tests := []struct {
		n, k int
		want []int
	}{
		{16, 2, []int{1, 4, 16}},
		{16, 4, []int{1, 2, 4, 8, 16}},
		{100, 2, []int{1, 10, 100}},
		{27, 3, []int{1, 3, 9, 27}},
		{30, 3, []int{1, 4, 10, 30}}, // ceilings for non-perfect powers
	}
	for _, tc := range tests {
		got := NeighborhoodSizes(tc.n, tc.k)
		if len(got) != len(tc.want) {
			t.Fatalf("NeighborhoodSizes(%d,%d) = %v, want %v", tc.n, tc.k, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("NeighborhoodSizes(%d,%d) = %v, want %v", tc.n, tc.k, got, tc.want)
			}
		}
	}
}

func TestNeighborhoodSizesMonotone(t *testing.T) {
	err := quick.Check(func(nRaw, kRaw uint8) bool {
		n := int(nRaw)%500 + 2
		k := int(kRaw)%6 + 1
		sizes := NeighborhoodSizes(n, k)
		for i := 0; i+1 < len(sizes); i++ {
			if sizes[i] > sizes[i+1] {
				return false
			}
		}
		return sizes[0] == 1 && sizes[k] == n
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPackedOrderMatchesComparatorOrder: Prefix selects on one packed
// word per node when the key fields fit 64 bits and sorts by the tuple
// comparator otherwise; every prefix of both must be the head of the
// reference order. The worlds run from n = 2 and 3 through unit
// weights, where most of the order is tie-breaking and the shuffled ids
// decide, to the churn regime's weights 33..64. Each world's ids are
// lifted by a power of two ten times, widening the id field one bit at
// a time.
func TestPackedOrderMatchesComparatorOrder(t *testing.T) {
	worlds := []struct {
		n     int
		maxW  graph.Dist
		churn bool
	}{{2, 3, false}, {3, 3, false}, {60, 1, false}, {70, 7, false}, {80, 8, true}}
	for wi, w := range worlds {
		rng := rand.New(rand.NewSource(int64(wi + 1)))
		g := graph.RandomSC(w.n, 2*w.n, w.maxW, rng)
		if w.churn {
			for u := 0; u < w.n; u++ {
				for _, e := range g.Out(graph.NodeID(u)) {
					if err := g.SetEdgeWeight(graph.NodeID(u), e.To, 33+(e.Weight-1)%32); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		m := graph.AllPairs(g)
		perm, idBits := rng.Perm(w.n), bits.Len(uint(w.n-1))
		for lift := 0; lift < 11; lift++ {
			ids := make([]int32, w.n)
			for i, p := range perm {
				ids[i] = int32(p)
				if lift > 0 {
					ids[i] |= 1 << (idBits + lift - 1)
				}
			}
			s := New(g, m, ids)
			for v := graph.NodeID(0); v < graph.NodeID(w.n); v++ {
				packed := s.ids.Order(m.FromSource(v), m.ToSink(v))
				plain := packed
				plain.idBits = -1 // what a negative id does: the tuple comparator
				if !packed.Packed() {
					t.Fatal("non-negative ids on small weights must pack")
				}
				ref := s.order(v)
				for _, size := range []int{1, 2, (w.n + 2) / 3, w.n - 1, w.n} {
					size = max(size, 1)
					if a, b := packed.Prefix(size), plain.Prefix(size); !slices.Equal(a, ref[:size]) || !slices.Equal(b, ref[:size]) {
						t.Fatalf("n=%d lift %d: Init_%d prefix %d: packed %v, comparator %v, reference %v", w.n, lift, v, size, a, b, ref[:size])
					}
				}
			}
		}
	}
}

// FuzzInitPrefix: on every graph family, on unit weights (ties
// everywhere), with negative or wide ids and with rows that cross a down
// edge (keys that cannot pack), every prefix the Space keeps or computes
// equals the head of the reference comparator order, and a Space built
// for any prefix length agrees.
func FuzzInitPrefix(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(20), uint8(0), uint8(0))
	f.Add(int64(2), uint8(2), uint8(9), uint8(3), uint8(1))
	f.Add(int64(3), uint8(5), uint8(30), uint8(7), uint8(2))
	f.Add(int64(4), uint8(1), uint8(25), uint8(1), uint8(7))
	families := strings.Split(graph.Families, "|")
	f.Fuzz(func(t *testing.T, seed int64, family, size, maxW, flags uint8) {
		rng := rand.New(rand.NewSource(seed))
		g, err := graph.Generate(families[int(family)%len(families)], 2+int(size)%40, 1+graph.Dist(maxW)%8, rng)
		if err != nil {
			t.Fatal(err)
		}
		n := g.N()
		if flags&1 != 0 {
			u := graph.NodeID(rng.Intn(n))
			if out := g.Out(u); len(out) > 0 {
				if err := g.SetEdgeWeight(u, out[rng.Intn(len(out))].To, graph.DownWeight); err != nil {
					t.Fatal(err)
				}
			}
		}
		ids := make([]int32, n)
		for i, p := range rng.Perm(n) {
			switch {
			case flags&2 != 0:
				ids[i] = int32(p - n) // negative: no packing
			case flags&4 != 0:
				ids[i] = int32(p) | 1<<30 // the widest id field
			default:
				ids[i] = int32(p)
			}
		}
		m := graph.AllPairs(g)
		keep := 1 + rng.Intn(n)
		s, kept := New(g, m, ids), NewPrefix(g, m, ids, keep)
		kept.Precompute(2)
		for v := graph.NodeID(0); v < graph.NodeID(n); v++ {
			ref := s.order(v)
			for _, size := range []int{1, s.size, keep, 1 + rng.Intn(n), n} {
				if got := s.Neighborhood(v, size); !slices.Equal(got, ref[:size]) {
					t.Fatalf("Init_%d prefix %d = %v, reference %v", v, size, got, ref[:size])
				}
				if got := kept.Neighborhood(v, size); !slices.Equal(got, ref[:size]) {
					t.Fatalf("Init_%d prefix %d (kept %d) = %v, reference %v", v, size, keep, got, ref[:size])
				}
			}
		}
	})
}

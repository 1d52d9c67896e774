package core

import (
	"math/rand"
	"testing"

	"rtroute/internal/blocks"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/rtz"
)

func buildExStretch(t testing.TB, seed int64, g *graph.Graph, perm *names.Permutation, k int) (*ExStretch, graph.DistanceOracle) {
	t.Helper()
	m := graph.AllPairs(g)
	rng := rand.New(rand.NewSource(seed))
	if perm == nil {
		perm = names.Random(g.N(), rng)
	}
	s, err := NewExStretch(g, m, perm, rng, ExStretchConfig{K: k})
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

// ladderScale returns the smallest base-2 ladder scale >= r (the hop
// substrate's level granularity).
func ladderScale(r graph.Dist) graph.Dist {
	s := graph.Dist(2)
	for s < r {
		s *= 2
	}
	return s
}

// TestExStretchDelivers is experiment E4's correctness half (Lemma 7):
// packets reach t and return to s for every ordered pair, k in {2,3}.
func TestExStretchDelivers(t *testing.T) {
	for _, k := range []int{2, 3} {
		rng := rand.New(rand.NewSource(int64(k)))
		g := graph.RandomSC(36, 144, 6, rng)
		perm := names.Random(g.N(), rng)
		s, _ := buildExStretch(t, int64(k)+50, g, perm, k)
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if u == v {
					continue
				}
				if _, err := s.Roundtrip(perm.Name(int32(u)), perm.Name(int32(v))); err != nil {
					t.Fatalf("k=%d roundtrip (%d,%d): %v", k, u, v, err)
				}
			}
		}
	}
}

// TestExStretchLemma8 verifies the geometric waypoint bound
// r(v_i, v_i+1) <= 2^i * r(s,t) for every pair and every leg.
func TestExStretchLemma8(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		rng := rand.New(rand.NewSource(int64(k) + 10))
		g := graph.RandomSC(32, 128, 5, rng)
		perm := names.Random(g.N(), rng)
		s, m := buildExStretch(t, int64(k)+60, g, perm, k)
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if u == v {
					continue
				}
				wps, err := s.Waypoints(perm.Name(int32(u)), perm.Name(int32(v)))
				if err != nil {
					t.Fatalf("k=%d waypoints (%d,%d): %v", k, u, v, err)
				}
				if wps[len(wps)-1] != graph.NodeID(v) {
					t.Fatalf("k=%d: waypoint walk (%d,%d) ends at %d", k, u, v, wps[len(wps)-1])
				}
				rst := m.R(graph.NodeID(u), graph.NodeID(v))
				// The i-th VISITED leg corresponds to hop index >= its
				// position, so position-based 2^i bounds are valid:
				// skipped waypoints only lower the index.
				pow := graph.Dist(1)
				for i := 0; i+1 < len(wps); i++ {
					leg := m.R(wps[i], wps[i+1])
					if leg > pow*rst*(1<<uint(k)) { // defensive slack never hit; precise check below
						t.Fatalf("leg absurdly long")
					}
					pow *= 2
				}
				// Precise Lemma 8 check with true hop indices.
				if err := checkLemma8(s, m, perm, graph.NodeID(u), graph.NodeID(v), rst); err != nil {
					t.Fatalf("k=%d pair (%d,%d): %v", k, u, v, err)
				}
			}
		}
	}
}

// checkLemma8 recomputes the waypoint walk with hop indices and asserts
// r(v_i, v_i+1) <= 2^i r(s,t) using the paper's indexing (legs between
// consecutive hop indices, including skipped self-legs of cost 0).
func checkLemma8(s *ExStretch, m graph.DistanceOracle, perm *names.Permutation, src, dst graph.NodeID, rst graph.Dist) error {
	cur := src
	for hop := 0; hop < s.K(); hop++ {
		tab := s.nodes[cur]
		nextName, _, err := s.lookupNext(tab, hop, perm.Name(int32(dst)))
		if err != nil {
			return err
		}
		next := graph.NodeID(perm.Node(nextName))
		if leg := m.R(cur, next); leg > (1<<uint(hop))*rst {
			return &lemma8Violation{hop: hop, leg: leg, bound: (1 << uint(hop)) * rst}
		}
		cur = next
	}
	return nil
}

type lemma8Violation struct {
	hop   int
	leg   graph.Dist
	bound graph.Dist
}

func (e *lemma8Violation) Error() string {
	return "Lemma 8 violated"
}

// TestExStretchTheorem9Bound asserts the end-to-end stretch bound with
// our substrate's constants: the total roundtrip is at most the sum over
// legs of the hop substrate's per-leg bound 2*(2k_c-1)*scale(r_leg),
// which with Lemma 8 gives the (2^k - 1)-type growth of Theorem 9.
func TestExStretchTheorem9Bound(t *testing.T) {
	for _, k := range []int{2, 3} {
		rng := rand.New(rand.NewSource(int64(k) + 20))
		g := graph.RandomSC(30, 120, 5, rng)
		perm := names.Random(g.N(), rng)
		s, m := buildExStretch(t, int64(k)+70, g, perm, k)
		kc := k // cover parameter defaults to K
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if u == v {
					continue
				}
				rt, err := s.Roundtrip(perm.Name(int32(u)), perm.Name(int32(v)))
				if err != nil {
					t.Fatal(err)
				}
				wps, err := s.Waypoints(perm.Name(int32(u)), perm.Name(int32(v)))
				if err != nil {
					t.Fatal(err)
				}
				var bound graph.Dist
				for i := 0; i+1 < len(wps); i++ {
					bound += 2 * graph.Dist(2*kc-1) * ladderScale(m.R(wps[i], wps[i+1]))
				}
				if got := rt.Weight(); got > bound {
					t.Fatalf("k=%d pair (%d,%d): roundtrip %d > substrate bound %d", k, u, v, got, bound)
				}
			}
		}
	}
}

func TestExStretchSelfRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	g := graph.RandomSC(20, 80, 4, rng)
	perm := names.Random(g.N(), rng)
	s, _ := buildExStretch(t, 31, g, perm, 2)
	rt, err := s.Roundtrip(perm.Name(5), perm.Name(5))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Weight() != 0 {
		t.Fatalf("self roundtrip weight %d, want 0", rt.Weight())
	}
}

func TestExStretchHeaderBound(t *testing.T) {
	// Headers are o(k log^2 n): a k-deep stack of handshakes. Assert the
	// stack never exceeds k records via the word count.
	rng := rand.New(rand.NewSource(32))
	g := graph.RandomSC(64, 256, 5, rng)
	perm := names.Random(g.N(), rng)
	k := 3
	s, _ := buildExStretch(t, 33, g, perm, k)
	// Worst-case single handshake: 2 + 2 labels of (1+2*log2(64)) = 13
	// words each => 28; k of them plus leg/bookkeeping.
	perHS := 2 + 2*(1+2*6+1)
	bound := 5 + (3 + 14) + k*(1+perHS)
	for trial := 0; trial < 400; trial++ {
		u := int32(rng.Intn(g.N()))
		v := int32(rng.Intn(g.N()))
		rt, err := s.Roundtrip(perm.Name(u), perm.Name(v))
		if err != nil {
			t.Fatal(err)
		}
		if got := rt.MaxHeaderWords(); got > bound {
			t.Fatalf("header %d words > bound %d", got, bound)
		}
	}
}

func TestExStretchAdversarialNaming(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	g := graph.RandomSC(25, 100, 4, rng)
	m := graph.AllPairs(g)
	for _, perm := range []*names.Permutation{names.Identity(g.N()), names.Reversed(g.N())} {
		s, err := NewExStretch(g, m, perm, rand.New(rand.NewSource(35)), ExStretchConfig{K: 2})
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if u == v {
					continue
				}
				if _, err := s.Roundtrip(perm.Name(int32(u)), perm.Name(int32(v))); err != nil {
					t.Fatalf("naming broke delivery at (%d,%d): %v", u, v, err)
				}
			}
		}
	}
}

func TestExStretchKValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	g := graph.RandomSC(10, 40, 3, rng)
	m := graph.AllPairs(g)
	if _, err := NewExStretch(g, m, names.Identity(10), rng, ExStretchConfig{K: 1}); err == nil {
		t.Fatal("K=1 accepted")
	}
	if _, err := NewExStretch(g, m, names.Identity(10), rng, ExStretchConfig{K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
}

func TestExStretchTableTradeoff(t *testing.T) {
	// Larger k must shrink tables (the whole point of the tradeoff):
	// compare k=2 vs k=4 on the same 256-node graph.
	rng := rand.New(rand.NewSource(37))
	g := graph.RandomSC(256, 1024, 5, rng)
	perm := names.Random(g.N(), rng)
	m := graph.AllPairs(g)
	s2, err := NewExStretch(g, m, perm, rand.New(rand.NewSource(38)), ExStretchConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	s4, err := NewExStretch(g, m, perm, rand.New(rand.NewSource(39)), ExStretchConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s4.AvgTableWords() >= s2.AvgTableWords() {
		t.Fatalf("k=4 tables (%.0f words) not smaller than k=2 (%.0f words)",
			s4.AvgTableWords(), s2.AvgTableWords())
	}
}

func TestExStretchFinerScaleBase(t *testing.T) {
	// The eps knob: a finer substrate ladder must keep correctness and
	// must not worsen the aggregate stretch.
	rng := rand.New(rand.NewSource(71))
	g := graph.RandomSC(26, 104, 5, rng)
	m := graph.AllPairs(g)
	perm := names.Random(g.N(), rng)
	coarse, err := NewExStretch(g, m, perm, rand.New(rand.NewSource(72)), ExStretchConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := NewExStretch(g, m, perm, rand.New(rand.NewSource(72)), ExStretchConfig{K: 2, ScaleBase: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	var coarseTotal, fineTotal graph.Dist
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u == v {
				continue
			}
			a, err := coarse.Roundtrip(perm.Name(int32(u)), perm.Name(int32(v)))
			if err != nil {
				t.Fatal(err)
			}
			b, err := fine.Roundtrip(perm.Name(int32(u)), perm.Name(int32(v)))
			if err != nil {
				t.Fatal(err)
			}
			coarseTotal += a.Weight()
			fineTotal += b.Weight()
		}
	}
	if fineTotal > coarseTotal*11/10 {
		t.Fatalf("finer ladder markedly worse in aggregate: %d vs %d", fineTotal, coarseTotal)
	}
}

func TestExStretchWaypointPrefixInvariant(t *testing.T) {
	// Every waypoint v_i (0 < i < k) must hold a block matching the
	// first i digits of the destination name — the §3.4 invariant. Use a
	// graph large enough (and a low block boost) that the assignment is
	// actually sparse, otherwise every node holds every block and the
	// walk degenerates to a single hop.
	rng := rand.New(rand.NewSource(40))
	g := graph.RandomSC(64, 256, 4, rng)
	perm := names.Random(g.N(), rng)
	m := graph.AllPairs(g)
	k := 3
	s, err := NewExStretch(g, m, perm, rng, ExStretchConfig{
		K:      k,
		Blocks: blocks.Config{Boost: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	multiHopWalks := 0
	for u := 0; u < g.N(); u += 2 {
		for v := 1; v < g.N(); v += 3 {
			if u == v {
				continue
			}
			dst := perm.Name(int32(v))
			cur := graph.NodeID(u)
			moved := 0
			for hop := 0; hop < k; hop++ {
				nextName, _, err := s.lookupNext(s.nodes[cur], hop, dst)
				if err != nil {
					t.Fatal(err)
				}
				next := graph.NodeID(perm.Node(nextName))
				if next != cur {
					moved++
				}
				if hop+1 < k && !s.HoldsPrefix(next, hop+1, dst) {
					t.Fatalf("waypoint %d (hop %d) holds no block matching prefix of name %d", next, hop+1, dst)
				}
				cur = next
			}
			if moved > 1 {
				multiHopWalks++
			}
		}
	}
	if multiHopWalks == 0 {
		t.Fatal("test vacuous: no walk used more than one waypoint; shrink Boost or grow n")
	}
}

// TestExStretchFullEntriesOverhang drives item (3b) where q^k > n: at
// n = 95 and k = 2, q = 10 and the last block holds the five names
// 90..94. On the built plane and on the plane restored from its
// sections, every name of a held block must return the handshake
// hop.R2 gives (the empty one for the node's own name), and every other
// name, up to q^k - 1, must miss. The table sizes must read what they
// read when (3b) was a hash table keyed by name.
func TestExStretchFullEntriesOverhang(t *testing.T) {
	const n = 95
	rng := rand.New(rand.NewSource(95))
	g := graph.RandomSC(n, 4*n, 9, rng)
	perm := names.Random(n, rng)
	built, err := NewExStretch(g, graph.AllPairs(g), perm, rng, ExStretchConfig{K: 2, Blocks: blocks.Config{Greedy: true}})
	if err != nil {
		t.Fatal(err)
	}
	if q := built.uni.Q; q != 10 {
		t.Fatalf("q = %d, want 10", q)
	}
	dep, err := Deploy(built)
	if err != nil {
		t.Fatal(err)
	}
	restored := dep.Scheme().(*ExStretch)
	lastHeld, missed := 0, 0
	for _, s := range []*ExStretch{built, restored} {
		for u := 0; u < n; u++ {
			held := make(map[blocks.BlockID]bool)
			for _, b := range built.assign.Sets[u] {
				held[b] = true
			}
			if held[9] {
				lastHeld++
			}
			for nm := int32(0); nm < 100; nm++ {
				got, hs, err := s.lookupNext(s.nodes[u], 1, nm)
				if nm >= n || !held[built.uni.BlockOf(nm)] {
					if err == nil {
						t.Fatalf("node %d: name %d outside its held blocks found (%d, %v)", u, nm, got, hs)
					}
					missed++
					continue
				}
				if err != nil {
					t.Fatalf("node %d: name %d of a held block: %v", u, nm, err)
				}
				var want rtz.Handshake
				if v := graph.NodeID(perm.Node(nm)); v != graph.NodeID(u) {
					want, _ = bestHandshake(t, built.hier, graph.NodeID(u), v)
				}
				if got != nm || hs.Ref != want.Ref || !labelEqual(hs.ULabel, want.ULabel) || !labelEqual(hs.VLabel, want.VLabel) {
					t.Fatalf("node %d: name %d gives (%d, %v), want (%d, %v)", u, nm, got, hs, nm, want)
				}
			}
		}
		if got, want := s.MaxTableWords(), 594; got != want {
			t.Errorf("MaxTableWords = %d, want %d", got, want)
		}
		if got, want := s.AvgTableWords(), 42771.0/n; got != want {
			t.Errorf("AvgTableWords = %v, want %v", got, want)
		}
	}
	if lastHeld == 0 || missed == 0 {
		t.Fatalf("vacuous: the overhanging block is held %d times, %d lookups missed", lastHeld, missed)
	}
}

package cover

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"rtroute/internal/graph"
	"rtroute/internal/tree"
)

func rtMetric(m graph.DistanceOracle) Metric {
	return func(u, v graph.NodeID) graph.Dist { return m.R(u, v) }
}

// maxOverlap returns the largest number of clusters any single node
// appears in — the quantity Theorem 10 property 3 bounds by 2k*n^(1/k).
func (r *Result) maxOverlap(n int) int {
	counts := make([]int, n)
	for _, c := range r.Clusters {
		for _, v := range c.Nodes {
			counts[v]++
		}
	}
	return slices.Max(counts)
}

// maxMemberships returns the largest per-node tree count across the
// whole hierarchy (Theorem 13 property 3 times the number of levels).
func (h *Hierarchy) maxMemberships() int {
	m := 0
	for _, ms := range h.memberships {
		m = max(m, len(ms))
	}
	return m
}

// roundtripViaRoot returns the cost of the route u -> root -> v -> root
// -> u inside tree t, the "Hop" roundtrip of §3, or false if either node
// is outside the tree.
func roundtripViaRoot(t *tree.Tree, u, v graph.NodeID) (graph.Dist, bool) {
	iu, iv := slices.Index(t.Members, u), slices.Index(t.Members, v)
	if iu < 0 || iv < 0 {
		return 0, false
	}
	return t.RoundtripAt(iu) + t.RoundtripAt(iv), true
}

// bestTree is the reference for TreeSearch: the shared tree minimizing
// roundtripViaRoot(u, v) — the "most convenient double tree" of §3.3's
// R2(u, v) — by a slot probe per membership of u, ties broken toward the
// lower (level, index), or false if no tree contains both. The
// home-tree guarantee bounds the returned cost by 2*(2k-1)*scale at u's
// first level whose scale reaches r(u, v).
func (h *Hierarchy) bestTree(u, v graph.NodeID) (TreeRef, graph.Dist, bool) {
	var (
		bestRef  TreeRef
		bestCost graph.Dist = graph.Inf
		found    bool
	)
	for _, e := range h.memberships[u] {
		cost, ok := roundtripViaRoot(h.Tree(e.Ref), u, v)
		if ok && (cost < bestCost || (cost == bestCost && e.Ref.Compare(bestRef) < 0)) {
			bestRef, bestCost, found = e.Ref, cost, true
		}
	}
	return bestRef, bestCost, found
}

// inducedRTRadius computes the exact roundtrip radius of the cluster from
// its seed center within the induced subgraph — the quantity Theorem 10
// property 2 bounds by (2k-1)d.
func inducedRTRadius(g *graph.Graph, c Cluster) graph.Dist {
	inSet := make(map[graph.NodeID]bool, len(c.Nodes))
	for _, v := range c.Nodes {
		inSet[v] = true
	}
	sub := graph.New(g.N())
	for _, v := range c.Nodes {
		for _, e := range g.Out(v) {
			if inSet[e.To] {
				sub.MustAddEdge(v, e.To, e.Weight)
			}
		}
	}
	from := new(graph.SSSPScratch).Dijkstra(sub, c.Center)
	to := new(graph.SSSPScratch).DijkstraRev(sub, c.Center)
	var rad graph.Dist
	for _, v := range c.Nodes {
		if from.Dist[v] >= graph.Inf || to.Dist[v] >= graph.Inf {
			return graph.Inf
		}
		if r := from.Dist[v] + to.Dist[v]; r > rad {
			rad = r
		}
	}
	return rad
}

// TestCoverTheorem10 verifies all three properties of Theorem 10 on
// random strongly connected digraphs for several (k, d) combinations.
// This regenerates experiment E5 (Figs. 7-8).
func TestCoverTheorem10(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3; trial++ {
		g := graph.RandomSC(48, 144, 6, rng)
		m := graph.AllPairs(g)
		dm := rtMetric(m)
		for _, k := range []int{2, 3} {
			for _, d := range []graph.Dist{2, 5, 10, graph.RTDiamOf(m)} {
				res, err := Build(g, dm, k, d)
				if err != nil {
					t.Fatalf("trial %d k=%d d=%d: %v", trial, k, d, err)
				}
				// Property 1: home cluster contains Nhat_d(v).
				for v := 0; v < g.N(); v++ {
					home := res.Clusters[res.Home[graph.NodeID(v)]]
					inHome := make(map[graph.NodeID]bool)
					for _, u := range home.Nodes {
						inHome[u] = true
					}
					for u := 0; u < g.N(); u++ {
						if dm(graph.NodeID(v), graph.NodeID(u)) <= d && !inHome[graph.NodeID(u)] {
							t.Fatalf("k=%d d=%d: home of %d misses ball member %d", k, d, v, u)
						}
					}
				}
				// Property 2: induced roundtrip radius <= (2k-1)d.
				bound := graph.Dist(2*k-1) * d
				for ci, c := range res.Clusters {
					if rad := inducedRTRadius(g, c); rad > bound {
						t.Fatalf("k=%d d=%d: cluster %d radius %d > bound %d", k, d, ci, rad, bound)
					}
				}
				// Property 3: overlap <= 2k * n^(1/k).
				overlapBound := int(math.Ceil(2 * float64(k) * math.Pow(float64(g.N()), 1/float64(k))))
				if got := res.maxOverlap(g.N()); got > overlapBound {
					t.Fatalf("k=%d d=%d: max overlap %d > bound %d", k, d, got, overlapBound)
				}
			}
		}
	}
}

func TestCoverClustersAreStronglyConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomSC(40, 100, 8, rng)
	m := graph.AllPairs(g)
	res, err := Build(g, rtMetric(m), 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	for ci, c := range res.Clusters {
		if inducedRTRadius(g, c) >= graph.Inf {
			t.Fatalf("cluster %d does not induce a strongly connected subgraph", ci)
		}
	}
}

func TestCoverOnRing(t *testing.T) {
	// On an n-ring every roundtrip distance is n, so a ball of radius
	// d < n is a singleton, and one of radius >= n is everything.
	g := graph.Ring(10, nil)
	m := graph.AllPairs(g)
	res, err := Build(g, rtMetric(m), 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Clusters {
		if len(c.Nodes) != 1 {
			t.Fatalf("ring with d < n should give singleton clusters, got %d nodes", len(c.Nodes))
		}
	}
	if len(res.Clusters) != 10 {
		t.Fatalf("expected 10 singleton clusters, got %d", len(res.Clusters))
	}

	res2, err := Build(g, rtMetric(m), 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Balls of radius n cover everything; the merged cluster must be V.
	if got := len(res2.Clusters[res2.Home[0]].Nodes); got != 10 {
		t.Fatalf("home cluster size = %d, want 10", got)
	}
}

func TestCoverInputValidation(t *testing.T) {
	g := graph.Ring(4, nil)
	m := graph.AllPairs(g)
	if _, err := Build(g, rtMetric(m), 1, 2); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := Build(g, rtMetric(m), 2, 0); err == nil {
		t.Fatal("d=0 accepted")
	}
}

func TestBallGrowingCover(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomSC(40, 120, 5, rng)
	m := graph.AllPairs(g)
	dm := rtMetric(m)
	for _, k := range []int{2, 3} {
		d := graph.Dist(4)
		res, err := BuildBallGrowing(g, dm, k, d)
		if err != nil {
			t.Fatal(err)
		}
		// Home cluster contains Nhat_d(v) for every v (core property).
		for v := 0; v < g.N(); v++ {
			home := res.Clusters[res.Home[graph.NodeID(v)]]
			inHome := make(map[graph.NodeID]bool)
			for _, u := range home.Nodes {
				inHome[u] = true
			}
			for u := 0; u < g.N(); u++ {
				if dm(graph.NodeID(v), graph.NodeID(u)) <= d && !inHome[graph.NodeID(u)] {
					t.Fatalf("k=%d: ball-growing home of %d misses %d", k, v, u)
				}
			}
		}
		// Radius bound (k+1)d from the seed.
		bound := graph.Dist(k+1) * d
		for ci, c := range res.Clusters {
			if rad := inducedRTRadius(g, c); rad > bound {
				t.Fatalf("k=%d: ball-growing cluster %d radius %d > %d", k, ci, rad, bound)
			}
		}
	}
}

func TestScalesLadder(t *testing.T) {
	s := Scales(100, 2)
	want := []graph.Dist{2, 4, 8, 16, 32, 64, 128}
	if len(s) != len(want) {
		t.Fatalf("Scales(100,2) = %v, want %v", s, want)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("Scales(100,2) = %v, want %v", s, want)
		}
	}
	// Strictly increasing and reaching the diameter for fractional bases.
	s = Scales(57, 1.5)
	for i := 0; i+1 < len(s); i++ {
		if s[i] >= s[i+1] {
			t.Fatalf("Scales(57,1.5) not strictly increasing: %v", s)
		}
	}
	if s[len(s)-1] < 57 {
		t.Fatalf("Scales(57,1.5) does not reach the diameter: %v", s)
	}
	// Tiny diameters still get one level.
	if got := Scales(1, 2); len(got) != 1 || got[0] < 1 {
		t.Fatalf("Scales(1,2) = %v", got)
	}
}

func TestHierarchyHomeTreeSpansBall(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomSC(36, 108, 4, rng)
	m := graph.AllPairs(g)
	h, err := BuildHierarchy(g, m, 2, 2, VariantAwerbuchPeleg)
	if err != nil {
		t.Fatal(err)
	}
	for _, lvl := range h.Levels {
		for v := 0; v < g.N(); v++ {
			ht := lvl.Trees[lvl.Cover.Home[graph.NodeID(v)]]
			for u := 0; u < g.N(); u++ {
				if m.R(graph.NodeID(v), graph.NodeID(u)) <= lvl.Scale && !slices.Contains(ht.Members, graph.NodeID(u)) {
					t.Fatalf("scale %d: home tree of %d misses Nhat member %d", lvl.Scale, v, u)
				}
			}
		}
	}
}

func TestHierarchyTreeHeights(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomSC(36, 108, 4, rng)
	m := graph.AllPairs(g)
	k := 2
	h, err := BuildHierarchy(g, m, k, 2, VariantAwerbuchPeleg)
	if err != nil {
		t.Fatal(err)
	}
	for _, lvl := range h.Levels {
		bound := graph.Dist(2*k-1) * lvl.Scale
		for ti, tr := range lvl.Trees {
			for i, v := range tr.Members {
				if rt := tr.RoundtripAt(i); rt > bound {
					t.Fatalf("scale %d tree %d: roundtrip through the root from %d is %d > (2k-1)*scale = %d",
						lvl.Scale, ti, v, rt, bound)
				}
			}
		}
	}
}

func TestHierarchyTopLevelSpansV(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.RandomSC(30, 90, 6, rng)
	m := graph.AllPairs(g)
	h, err := BuildHierarchy(g, m, 2, 2, VariantAwerbuchPeleg)
	if err != nil {
		t.Fatal(err)
	}
	top := h.Levels[len(h.Levels)-1]
	for v := 0; v < g.N(); v++ {
		ht := top.Trees[top.Cover.Home[graph.NodeID(v)]]
		if len(ht.Members) != g.N() {
			t.Fatalf("top-level home tree of %d has %d members, want %d", v, len(ht.Members), g.N())
		}
	}
}

func TestBestTreeGuarantee(t *testing.T) {
	// For every pair (u,v), bestTree must return a tree whose
	// root-roundtrip cost is at most 2*(2k-1)*scale where scale is the
	// first level covering r(u,v) — the R2/Hop guarantee the §3 scheme
	// relies on.
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomSC(32, 96, 5, rng)
	m := graph.AllPairs(g)
	k := 2
	h, err := BuildHierarchy(g, m, k, 2, VariantAwerbuchPeleg)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u == v {
				continue
			}
			_, cost, ok := h.bestTree(graph.NodeID(u), graph.NodeID(v))
			if !ok {
				t.Fatalf("no shared tree for (%d,%d)", u, v)
			}
			r := m.R(graph.NodeID(u), graph.NodeID(v))
			var scale graph.Dist = -1
			for _, lvl := range h.Levels {
				if lvl.Scale >= r {
					scale = lvl.Scale
					break
				}
			}
			if scale < 0 {
				t.Fatalf("no level covers r(%d,%d) = %d", u, v, r)
			}
			bound := 2 * graph.Dist(2*k-1) * scale
			if cost > bound {
				t.Fatalf("bestTree(%d,%d) cost %d > bound %d (r=%d scale=%d)", u, v, cost, bound, r, scale)
			}
		}
	}
}

// TestTreeSearchMatchesBestTree checks the dense search against bestTree
// for every pair (u, v), u == v included, on small hierarchies of both
// variants. Unit and near-unit weights make many shared trees cost the
// same, so the tie rule decides often; the test requires that it did.
// Sources are laid out in shuffled order, so each From must clear the
// previous node's costs.
func TestTreeSearchMatchesBestTree(t *testing.T) {
	for _, variant := range []Variant{VariantAwerbuchPeleg, VariantBallGrowing} {
		for _, maxW := range []graph.Dist{1, 2} {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 20 + rng.Intn(20)
				g := graph.RandomSC(n, 3*n, maxW, rng)
				m := graph.AllPairs(g)
				h, err := BuildHierarchy(g, m, 2, 1.5, variant)
				if err != nil {
					t.Fatal(err)
				}
				search, ties := h.NewTreeSearch(), 0
				for _, u := range rng.Perm(n) {
					u := graph.NodeID(u)
					search.From(u)
					for v := graph.NodeID(0); int(v) < n; v++ {
						ref, cost, ok := h.bestTree(u, v)
						got, gotOK := search.Best(v)
						if gotOK != ok || got.Ref != ref || got.Cost != cost {
							t.Fatalf("%v maxW=%d seed %d: search (%d,%d) gives %+v %v, bestTree %v cost %d %v",
								variant, maxW, seed, u, v, got, gotOK, ref, cost, ok)
						}
						tr := h.Tree(ref)
						if got.USlot != slices.Index(tr.Members, u) || got.VSlot != slices.Index(tr.Members, v) {
							t.Fatalf("(%d,%d): slots %d %d, tree %v has %d %d", u, v, got.USlot, got.VSlot, ref, slices.Index(tr.Members, u), slices.Index(tr.Members, v))
						}
						shared := 0
						for _, e := range h.Memberships(u) {
							if c, ok := roundtripViaRoot(h.Tree(e.Ref), u, v); ok && c == cost {
								shared++
							}
						}
						if shared > 1 {
							ties++
						}
					}
				}
				if ties == 0 {
					t.Fatalf("%v maxW=%d seed %d: no pair had two trees at its least cost", variant, maxW, seed)
				}
			}
		}
	}
}

// TestMembershipsAccounting: a node's memberships are the trees that
// contain it, in strict (level, index) order, each carrying the node's
// state, in-port and root flag in that tree.
func TestMembershipsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.RandomSC(30, 90, 4, rng)
	m := graph.AllPairs(g)
	h, err := BuildHierarchy(g, m, 2, 2, VariantAwerbuchPeleg)
	if err != nil {
		t.Fatal(err)
	}
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		ms, trees := h.Memberships(v), 0
		for _, lvl := range h.Levels {
			for _, tr := range lvl.Trees {
				if slices.Contains(tr.Members, v) {
					trees++
				}
			}
		}
		if len(ms) != trees {
			t.Fatalf("node %d has %d memberships, belongs to %d trees", v, len(ms), trees)
		}
		for i, e := range ms {
			tr := h.Tree(e.Ref)
			st, ok := tr.State(v)
			if !ok {
				t.Fatalf("membership %v does not contain %d", e.Ref, v)
			}
			port, _ := tr.InPort(v)
			if e.State != st || e.InPort != port || e.IsRoot != (tr.Root == v) {
				t.Fatalf("node %d in tree %v: membership %+v, tree gives state %+v, in-port %d, root %d", v, e.Ref, e, st, port, tr.Root)
			}
			if i > 0 && ms[i-1].Ref.Compare(e.Ref) >= 0 {
				t.Fatalf("node %d: memberships %v, %v out of (level, index) order", v, ms[i-1].Ref, e.Ref)
			}
		}
	}
	if h.maxMemberships() == 0 {
		t.Fatal("no memberships recorded")
	}
	// Per-level overlap bound propagates: max memberships <= levels * 2k*n^(1/k).
	perLevel := int(math.Ceil(2 * 2 * math.Sqrt(float64(g.N()))))
	if h.maxMemberships() > len(h.Levels)*perLevel {
		t.Fatalf("max memberships %d exceeds levels*bound = %d", h.maxMemberships(), len(h.Levels)*perLevel)
	}
}

func TestVariantString(t *testing.T) {
	if VariantAwerbuchPeleg.String() != "awerbuch-peleg" {
		t.Fatal("bad string for AP variant")
	}
	if VariantBallGrowing.String() != "ball-growing" {
		t.Fatal("bad string for ball-growing variant")
	}
	if Variant(99).String() == "" {
		t.Fatal("unknown variant should still stringify")
	}
}

// hierarchyDiff names the first part in which two hierarchies differ —
// a level's scale or cover (clusters, centers, homes), a tree (states,
// labels and the rest), a node's memberships — or returns "".
func hierarchyDiff(a, b *Hierarchy) string {
	if len(a.Levels) != len(b.Levels) {
		return fmt.Sprintf("%d vs %d levels", len(a.Levels), len(b.Levels))
	}
	for li, la := range a.Levels {
		lb := b.Levels[li]
		if la.Scale != lb.Scale || !reflect.DeepEqual(la.Cover, lb.Cover) {
			return fmt.Sprintf("level %d: scale or cover", li)
		}
		for ti, ta := range la.Trees {
			if !reflect.DeepEqual(ta, lb.Trees[ti]) {
				return fmt.Sprintf("level %d: tree %d", li, ti)
			}
		}
	}
	if a.N() != b.N() {
		return fmt.Sprintf("%d vs %d nodes", a.N(), b.N())
	}
	for v := 0; v < a.N(); v++ {
		if !slices.Equal(a.Memberships(graph.NodeID(v)), b.Memberships(graph.NodeID(v))) {
			return fmt.Sprintf("memberships of node %d", v)
		}
	}
	return ""
}

// TestBuildHierarchyIndependentOfCores: BuildHierarchy builds its levels
// concurrently, so the hierarchy must come out the same at every core
// count, for both cover variants.
func TestBuildHierarchyIndependentOfCores(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.RandomSC(96, 288, 8, rng)
	m := graph.AllPairs(g)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, variant := range []Variant{VariantAwerbuchPeleg, VariantBallGrowing} {
		var ref *Hierarchy
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			h, err := BuildHierarchy(g, m, 2, 2, variant)
			if err != nil {
				t.Fatalf("%v at GOMAXPROCS %d: %v", variant, procs, err)
			}
			if ref == nil {
				if len(h.Levels) < 3 {
					t.Fatalf("%v: %d levels leave nothing to run concurrently", variant, len(h.Levels))
				}
				ref = h
			} else if d := hierarchyDiff(ref, h); d != "" {
				t.Fatalf("%v: GOMAXPROCS %d differs from 1 in %s", variant, procs, d)
			}
		}
	}
}

// TestBuildHierarchyUnderSmallRowBudget: over a four-row lazy oracle the
// concurrent levels evict each other's anchor rows all the time; the
// hierarchy must still equal the one built with every row resident.
func TestBuildHierarchyUnderSmallRowBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := graph.RandomSC(64, 192, 8, rng)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, variant := range []Variant{VariantAwerbuchPeleg, VariantBallGrowing} {
		want, err := BuildHierarchy(g, graph.AllPairs(g), 2, 2, variant)
		if err != nil {
			t.Fatal(err)
		}
		small := graph.NewLazyOracle(g, 4)
		got, err := BuildHierarchy(g, small, 2, 2, variant)
		if err != nil {
			t.Fatal(err)
		}
		if small.Stats().Evictions == 0 {
			t.Fatalf("%v: a four-row oracle evicted nothing", variant)
		}
		if d := hierarchyDiff(want, got); d != "" {
			t.Fatalf("%v: the four-row build differs in %s", variant, d)
		}
	}
}

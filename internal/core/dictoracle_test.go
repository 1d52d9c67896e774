package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rtroute/internal/blocks"
	"rtroute/internal/cover"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/rtmetric"
	"rtroute/internal/rtz"
)

// The constructors fill each dictionary in one pass (first match in
// Init_u order wins the slot). The loops below are the definitions they
// replaced — for every slot, rescan Init_u until a node matches — kept
// as reference oracles.

// polyDictReference is Fig. 11's dictionary (c) for node u in tree ref,
// by the per-(j, τ) rescan.
func polyDictReference(s *PolynomialStretch, space *rtmetric.Space, u graph.NodeID, ref cover.TreeRef) []polyDictEntry {
	tr := s.hier.Tree(ref)
	dict := []polyDictEntry{}
	selfName := s.perm.Name(int32(u))
	initU := space.Neighborhood(u, space.G.N())
	for j := 0; j < s.k; j++ {
		myPrefix := s.uni.Prefix(selfName, j)
		for tau := int32(0); tau < int32(s.uni.Q); tau++ {
			wantPrefix := myPrefix*int32(s.uni.Q) + tau
			for _, w := range initU {
				if w == u || !slices.Contains(tr.Members, w) {
					continue
				}
				if s.uni.Prefix(s.perm.Name(int32(w)), j+1) == wantPrefix {
					lbl, _ := tr.LabelOf(w)
					dict = append(dict, polyDictEntry{key: int32(j)*int32(s.uni.Q) + tau, name: s.perm.Name(int32(w)), label: lbl})
					break
				}
			}
		}
	}
	return dict
}

// holdsPrefixDigit reports whether node w holds a block matching the
// given length-i prefix whose (i+1)-st digit is tau.
func holdsPrefixDigit(a *blocks.Assignment, w graph.NodeID, i int, prefix, tau int32) bool {
	for _, b := range a.Sets[w] {
		if a.U.BlockPrefix(b, i) == prefix && a.U.BlockPrefix(b, i+1) == prefix*int32(a.U.Q)+tau {
			return true
		}
	}
	return false
}

// exDictItem is one item (3a) entry with its key unpacked and its
// handshake whole.
type exDictItem struct {
	level       int8
	prefix, tau int32
	target      int32
	hs          rtz.Handshake
}

// exDictReference is §3.3's item (3a) for node u, by the per-(block,
// level, τ) rescan, in the canonical (level, prefix, τ) order.
func exDictReference(t *testing.T, s *ExStretch, space *rtmetric.Space, u graph.NodeID) []exDictItem {
	dict := []exDictItem{}
	done := make(map[[3]int32]bool)
	initU := space.Neighborhood(u, space.G.N())
	for _, b := range s.assign.Sets[u] {
		for i := 0; i < s.k-1; i++ {
			prefix := s.uni.BlockPrefix(b, i)
			for tau := int32(0); tau < int32(s.uni.Q); tau++ {
				key := [3]int32{int32(i), prefix, tau}
				if done[key] {
					continue
				}
				done[key] = true
				target := graph.NodeID(-1)
				for _, w := range initU {
					if holdsPrefixDigit(s.assign, w, i, prefix, tau) {
						target = w
						break
					}
				}
				if target < 0 {
					continue
				}
				var hs rtz.Handshake
				if target != u {
					hs, _ = bestHandshake(t, s.hier, u, target)
				}
				dict = append(dict, exDictItem{level: int8(i), prefix: prefix, tau: tau, target: s.perm.Name(int32(target)), hs: hs})
			}
		}
	}
	slices.SortFunc(dict, func(a, b exDictItem) int {
		return cmp.Or(cmp.Compare(a.level, b.level), cmp.Compare(a.prefix, b.prefix), cmp.Compare(a.tau, b.tau))
	})
	return dict
}

// TestOnePassDictionariesMatchReference builds both schemes on seeded
// random graphs — unit weights among them, where Init_u is mostly
// tie-breaking — with adversarially shuffled port labels, and compares
// every node's dictionaries entry for entry with the reference loops.
func TestOnePassDictionariesMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, k := range []int{2, 3} {
			for _, variant := range []cover.Variant{cover.VariantAwerbuchPeleg, cover.VariantBallGrowing} {
				for _, maxW := range []graph.Dist{1, 9} {
					t.Run(fmt.Sprintf("seed=%d/k=%d/%v/maxW=%d", seed, k, variant, maxW), func(t *testing.T) {
						rng := rand.New(rand.NewSource(seed*100 + int64(k)))
						n := 40 + rng.Intn(25)
						g := graph.RandomSC(n, 3*n, maxW, rng)
						g.AssignPorts(rng.Intn)
						perm := names.Random(n, rng)
						m := graph.AllPairs(g)
						space := rtmetric.New(g, m, perm.Names)

						poly, err := NewPolynomialStretch(g, m, perm, PolyConfig{K: k, Variant: variant})
						if err != nil {
							t.Fatal(err)
						}
						// Ids shifted below zero keep the order but cannot pack:
						// the one-pass build on tuple-sorted ranks must agree too.
						shifted, digits := make([]int32, n), make([]int32, n*k)
						for w := range shifted {
							shifted[w] = perm.Name(int32(w)) - int32(n)
							for j, d := range poly.uni.Digits(perm.Name(int32(w))) {
								digits[w*k+j] = int32(d)
							}
						}
						var tuple polyDictScratch
						for u := 0; u < n; u++ {
							ms := poly.hier.Memberships(graph.NodeID(u))
							if len(poly.nodes[u].trees) != len(ms) {
								t.Fatalf("poly node %d holds %d trees, belongs to %d", u, len(poly.nodes[u].trees), len(ms))
							}
							unpacked := rtmetric.NewIDs(shifted).Order(m.FromSource(graph.NodeID(u)), m.ToSink(graph.NodeID(u)))
							if unpacked.Packed() {
								t.Fatal("negative ids must not pack")
							}
							tuple.order(unpacked)
							for i, e := range ms {
								want := polyDictReference(poly, space, graph.NodeID(u), e.Ref)
								if got := poly.nodes[u].trees[i].dict; poly.nodes[u].hop.Trees[i].Ref != e.Ref || !reflect.DeepEqual(got, want) {
									t.Fatalf("poly node %d tree %v: one-pass dictionary differs from the rescan:\n got %v\nwant %v", u, e.Ref, got, want)
								}
								if got := tuple.build(poly.hier.Tree(e.Ref), graph.NodeID(u), digits, perm, poly.uni); !reflect.DeepEqual(got, want) {
									t.Fatalf("poly node %d tree %v: tuple-compare dictionary differs from the rescan:\n got %v\nwant %v", u, e.Ref, got, want)
								}
							}
						}

						ex, err := NewExStretch(g, m, perm, rng, ExStretchConfig{K: k, Variant: variant, Blocks: blocks.Config{Greedy: seed%2 == 0}})
						if err != nil {
							t.Fatal(err)
						}
						for u := 0; u < n; u++ {
							want := exDictReference(t, ex, space, graph.NodeID(u))
							got := []exDictItem{}
							tab := ex.nodes[u]
							for _, e := range tab.dict {
								level, prefix, tau := ex.unpackKey(e.key)
								got = append(got, exDictItem{level: level, prefix: prefix, tau: tau, target: e.target, hs: ex.handshake(tab, e.hs)})
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("ex node %d: one-pass dictionary differs from the rescan:\n got %v\nwant %v", u, got, want)
							}
						}
					})
				}
			}
		}
	}
}

// TestClaimWalkOnPrefixes walks every node's (3a) claims over every
// prefix of Init_u: a walk that reports done must return the full
// order's claims, and one over the whole order is done whenever the
// built scheme needed no fallback for that node. The built scheme's
// fallback count is the number of nodes whose walk is still open at
// the N_{k-1} prefix.
func TestClaimWalkOnPrefixes(t *testing.T) {
	for _, k := range []int{2, 3} {
		rng := rand.New(rand.NewSource(int64(k)))
		n := 50
		g := graph.RandomSC(n, 3*n, 5, rng)
		perm := names.Random(n, rng)
		m := graph.AllPairs(g)
		ex, err := NewExStretch(g, m, perm, rng, ExStretchConfig{K: k})
		if err != nil {
			t.Fatal(err)
		}
		space, realized := rtmetric.New(g, m, perm.Names), realizedClasses(ex.assign)
		keep := rtmetric.NeighborhoodSizes(n, k)[k-1]
		var sc exDictScratch
		open := 0
		for u := 0; u < n; u++ {
			full := space.Neighborhood(graph.NodeID(u), n)
			want, _ := sc.claim(ex.assign, realized, graph.NodeID(u), full)
			want = slices.Clone(want)
			for size := 1; size <= n; size++ {
				got, done := sc.claim(ex.assign, realized, graph.NodeID(u), full[:size])
				if done && !slices.Equal(got, want) {
					t.Fatalf("k=%d node %d: walk done at prefix %d claims %v, full order %v", k, u, size, got, want)
				}
				if size == keep && !done {
					open++
				}
			}
		}
		if open != ex.claimFallbacks {
			t.Fatalf("k=%d: %d walks open at the N_{k-1} prefix, build counted %d fallbacks", k, open, ex.claimFallbacks)
		}
		t.Logf("k=%d n=%d: %d of %d claim walks needed more than the N_{k-1} prefix (%d nodes)", k, n, open, n, keep)
	}
}

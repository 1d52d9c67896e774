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
	for j := 0; j < s.k; j++ {
		myPrefix := s.uni.Prefix(selfName, j)
		for tau := int32(0); tau < int32(s.uni.Q); tau++ {
			wantPrefix := myPrefix*int32(s.uni.Q) + tau
			for _, w := range space.Init(u) {
				if w == u || !tr.Contains(w) {
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
				for _, w := range space.Init(u) {
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
						for u := 0; u < n; u++ {
							ms := poly.hier.Memberships(graph.NodeID(u))
							if len(poly.nodes[u].trees) != len(ms) {
								t.Fatalf("poly node %d holds %d trees, belongs to %d", u, len(poly.nodes[u].trees), len(ms))
							}
							for i, e := range ms {
								want := polyDictReference(poly, space, graph.NodeID(u), e.Ref)
								if got := poly.nodes[u].trees[i].dict; poly.nodes[u].hop.Trees[i].Ref != e.Ref || !reflect.DeepEqual(got, want) {
									t.Fatalf("poly node %d tree %v: one-pass dictionary differs from the rescan:\n got %v\nwant %v", u, e.Ref, got, want)
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

package rtroute

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"rtroute/internal/wire"
	"testing"
)

// benchWorld regenerates a repo-benchmark world (benchmark/world.go's
// newGraph at world seed 1): churn-n512's regime remaps weights into
// [33,64].
func benchWorld(t *testing.T, n, deg int, maxW Dist, churnRegime bool) (*Graph, *Naming) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	g := RandomSC(n, deg*n, maxW, rng)
	if churnRegime {
		for u := 0; u < n; u++ {
			for _, e := range g.Out(NodeID(u)) {
				if err := g.SetEdgeWeight(NodeID(u), e.To, 33+(e.Weight-1)%32); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g, RandomNaming(n, rng)
}

// TestBenchmarkSnapshotsPinned pins the sha256 of the snapshots the repo
// benchmark builds, for three benchmark seeds, as read at the commit
// before construction moved onto one shared, parallel per-node pass:
// churn-n512's StretchSix always, and — with RTROUTE_LARGE=1, as `make
// snapshots` and so `make ci` run it — build-1k's three schemes. An
// oracle, constructor, tree or section-codec change that moves a single
// byte fails here.
func TestBenchmarkSnapshotsPinned(t *testing.T) {
	want := map[string][3]string{
		"build-1k/stretch6": {
			"7cfbaa4e8b4d51cc966d531923e50db391fb395ff85035f883b371a15f20bee1",
			"85c1c8fcc720576f8a75d85659010ed31f53eb0750f623a1f4818ac02f5dc387",
			"6f2c493aae5d241dfef1c42f9dcfcffd78b8eb72dbc6cd12d80a38271c0ed574",
		},
		"build-1k/exstretch": {
			"41231025c51dbeee19d228d349ea28eecb8c7974be9bfd268da851b136dc5d75",
			"cc26c36cbd22445cad2582635e5d6b042b9047edfcb1c6c7b0f3b1eca1a81a4e",
			"603cfdbd281ea89d6298bbf92d6951bf83af1495ca04168a0f90da3f067d5f47",
		},
		"build-1k/polystretch": { // deterministic: the seed does not enter
			"0b95d964800dcb1e2ae60b337fe7bd6be7e1ac653466556772bd2acacd7acdb2",
			"0b95d964800dcb1e2ae60b337fe7bd6be7e1ac653466556772bd2acacd7acdb2",
			"0b95d964800dcb1e2ae60b337fe7bd6be7e1ac653466556772bd2acacd7acdb2",
		},
		"churn-n512/stretch6": {
			"e098e0cb2fce2218b9ebe76df05d3447be12e8c7b14e66466ec483f4150a7a54",
			"5891dcfc321f6e5afbc6ac7189d5eabc4a5f7d99414edad58fca6142d7cdae05",
			"cc8c4228e7edd52234bfe77c0ccd6fc5da5fc2f9fba8db1a563a07852fad2aaa",
		},
	}
	check := func(sys *System, world string, kinds ...SchemeKind) {
		t.Helper()
		for seed := int64(1); seed <= 3; seed++ {
			for _, kind := range kinds {
				sch, err := sys.Build(kind, WithK(2), WithSeed(seed+1))
				if err != nil {
					t.Fatalf("%s seed %d: build %v: %v", world, seed, kind, err)
				}
				blob, err := wire.MarshalScheme(sch)
				if err != nil {
					t.Fatalf("%s seed %d: marshal %v: %v", world, seed, kind, err)
				}
				key := world + "/" + kind.String()
				if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != want[key][seed-1] {
					t.Errorf("%s seed %d: snapshot sha256 %s, pinned %s", key, seed, got, want[key][seed-1])
				}
			}
		}
	}
	g, naming := benchWorld(t, 512, 32, 64, true)
	lazy, err := NewSystemWith(g, naming, SystemConfig{Metric: MetricLazy})
	if err != nil {
		t.Fatal(err)
	}
	check(lazy, "churn-n512", StretchSix)
	if os.Getenv("RTROUTE_LARGE") == "" {
		t.Log("set RTROUTE_LARGE=1 (make snapshots) to pin build-1k's nine n=1024 snapshots too")
		return
	}
	g, naming = benchWorld(t, 1024, 4, 8, false)
	sys, err := NewSystem(g, naming)
	if err != nil {
		t.Fatal(err)
	}
	check(sys, "build-1k", StretchSix, ExStretch, Polynomial)
}

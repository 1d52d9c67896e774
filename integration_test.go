package rtroute

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"rtroute/internal/graph"
)

// TestSchemeFamilyMatrix routes sampled pairs for every scheme on every
// graph family and asserts each scheme's worst-case bound. This is the
// repository's broadest integration sweep: TINN naming, adversarial
// ports, simulator-only forwarding, exact bound checks.
func TestSchemeFamilyMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	families := []struct {
		name string
		g    *Graph
	}{
		{"random", RandomSC(40, 160, 8, rng)},
		{"gnp", RandomGNP(36, 0.12, 6, rng)},
		{"ring", Ring(24, rng)},
		{"grid", Grid(5, 5, rng)},
		{"scalefree", ScaleFreeSC(40, 2, 5, rng)},
		{"layered", LayeredSC(5, 6, 5, rng)},
		{"complete", Complete(16, 9, rng)},
		{"bidirected", mustAssignPorts(Bidirect(RandomSC(24, 72, 4, rng)), rng)},
	}

	for _, fam := range families {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			sys, err := NewSystem(fam.g, RandomNaming(fam.g.N(), rng))
			if err != nil {
				t.Fatal(err)
			}
			schemes := []struct {
				name  string
				bound float64
				sch   Scheme
			}{}
			s6, err := sys.Build(StretchSix, WithSeed(1))
			if err != nil {
				t.Fatalf("stretch6: %v", err)
			}
			schemes = append(schemes, struct {
				name  string
				bound float64
				sch   Scheme
			}{"stretch6", 6, s6})
			ex, err := sys.Build(ExStretch, WithK(2), WithSeed(2))
			if err != nil {
				t.Fatalf("exstretch: %v", err)
			}
			// ExStretch bound with our substrate: (2^2-1) legs, each
			// within 2*(2k-1)*scale where scale < 2*2^ceil(log r)...
			// use the conservative derived cap (2^k-1)*2*(2k-1)*2 = 36.
			schemes = append(schemes, struct {
				name  string
				bound float64
				sch   Scheme
			}{"exstretch-k2", 36, ex})
			poly, err := sys.Build(Polynomial, WithK(2))
			if err != nil {
				t.Fatalf("poly: %v", err)
			}
			schemes = append(schemes, struct {
				name  string
				bound float64
				sch   Scheme
			}{"poly-k2", 36, poly})

			for _, entry := range schemes {
				stats, err := MeasureScheme(sys, entry.sch, 600, 3)
				if err != nil {
					t.Fatalf("%s on %s: %v", entry.name, fam.name, err)
				}
				if stats.Max > entry.bound {
					t.Fatalf("%s on %s: measured max stretch %.3f > bound %.0f",
						entry.name, fam.name, stats.Max, entry.bound)
				}
				if stats.Mean < 1 {
					t.Fatalf("%s on %s: mean %.3f below 1", entry.name, fam.name, stats.Mean)
				}
			}
		})
	}
}

func mustAssignPorts(g *Graph, rng *rand.Rand) *Graph {
	g.AssignPorts(rng.Intn)
	return g
}

// TestConcurrentRoundtrips drives many goroutines through one built
// scheme: tables are read-only after construction and headers are
// per-packet, so concurrent routing must be race-free (run with -race).
func TestConcurrentRoundtrips(t *testing.T) {
	sys := newTestSystem(t, 77, 48)
	schemes := make([]Scheme, 0, 3)
	s6, err := sys.Build(StretchSix, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := sys.Build(ExStretch, WithK(2), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	poly, err := sys.Build(Polynomial, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	schemes = append(schemes, s6, ex, poly)

	for _, sch := range schemes {
		sch := sch
		t.Run(sch.SchemeName(), func(t *testing.T) {
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 50; i++ {
						u := int32(rng.Intn(48))
						v := int32(rng.Intn(48))
						if u == v {
							continue
						}
						tr, err := sch.Roundtrip(u, v)
						if err != nil {
							errs <- fmt.Errorf("goroutine %d: %w", seed, err)
							return
						}
						if st := sys.Stretch(u, v, tr); st < 1 {
							errs <- fmt.Errorf("goroutine %d: stretch %f < 1", seed, st)
							return
						}
					}
				}(int64(w))
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestMinimalNetworks exercises the smallest legal systems.
func TestMinimalNetworks(t *testing.T) {
	// Two nodes, two edges: the minimum strongly connected digraph.
	g := graph.New(2)
	g.MustAddEdge(0, 1, 3)
	g.MustAddEdge(1, 0, 5)
	sys, err := NewSystem(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	s6, err := sys.Build(StretchSix, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s6.Roundtrip(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Weight() != 8 {
		t.Fatalf("2-node roundtrip weight %d, want 8 (it is the only cycle)", tr.Weight())
	}
	ex, err := sys.Build(ExStretch, WithK(2), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if tr, err = ex.Roundtrip(1, 0); err != nil || tr.Weight() != 8 {
		t.Fatalf("exstretch 2-node roundtrip: %d, %v", tr.Weight(), err)
	}
	poly, err := sys.Build(Polynomial, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	if tr, err = poly.Roundtrip(0, 1); err != nil || tr.Weight() != 8 {
		t.Fatalf("poly 2-node roundtrip: %d, %v", tr.Weight(), err)
	}
}

// TestDeterministicBuilds: same seeds, same graph -> identical measured
// behavior across two independently built systems.
func TestDeterministicBuilds(t *testing.T) {
	build := func() (*System, Scheme) {
		rng := rand.New(rand.NewSource(5))
		g := RandomSC(30, 120, 6, rng)
		sys, err := NewSystem(g, RandomNaming(30, rng))
		if err != nil {
			t.Fatal(err)
		}
		s6, err := sys.Build(StretchSix, WithSeed(9))
		if err != nil {
			t.Fatal(err)
		}
		return sys, s6
	}
	sysA, schA := build()
	_, schB := build()
	for u := int32(0); u < 30; u += 3 {
		for v := int32(1); v < 30; v += 4 {
			if u == v {
				continue
			}
			a, err := schA.Roundtrip(u, v)
			if err != nil {
				t.Fatal(err)
			}
			b, err := schB.Roundtrip(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if a.Weight() != b.Weight() || a.Hops() != b.Hops() {
				t.Fatalf("nondeterministic build: (%d,%d) gives %d/%d vs %d/%d",
					u, v, a.Weight(), a.Hops(), b.Weight(), b.Hops())
			}
		}
	}
	_ = sysA
}

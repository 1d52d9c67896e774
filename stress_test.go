package rtroute

import (
	"math/rand"
	"rtroute/internal/graph"
	"testing"
)

// TestStretchSixAtScale builds the §2 scheme on a 384-node network with
// parallel preprocessing and checks the bound over a large pair sample —
// the "laptop-scale" full-size run of the reproduction.
func TestStretchSixAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short")
	}
	n := 384
	rng := rand.New(rand.NewSource(99))
	g := RandomSC(n, 5*n, 16, rng)
	m := graph.AllPairs(g)
	naming := RandomNaming(n, rng)
	sys := &System{Graph: g, Metric: m, Naming: naming}
	sch, err := sys.Build(StretchSix, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := MeasureScheme(sys, sch, 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Max > 6 {
		t.Fatalf("stretch-6 violated at scale: %.3f", stats.Max)
	}
	if stats.Mean < 1 || stats.Mean > 3 {
		t.Fatalf("implausible mean stretch %.3f at scale", stats.Mean)
	}
	// Table sublinearity at scale: average table well under n words.
	if sch.AvgTableWords() > float64(n)*20 {
		t.Fatalf("avg table %.0f words suspiciously large for n=%d", sch.AvgTableWords(), n)
	}
	t.Logf("n=%d: max stretch %.3f, mean %.3f, avg table %.0f words",
		n, stats.Max, stats.Mean, sch.AvgTableWords())
}

// TestAllSchemesAtModerateScale runs every scheme at n=160 over sampled
// pairs, asserting bounds — broader than the unit suites, smaller than
// the scale test.
func TestAllSchemesAtModerateScale(t *testing.T) {
	if testing.Short() {
		t.Skip("moderate-scale test skipped in -short")
	}
	n := 160
	rng := rand.New(rand.NewSource(123))
	g := RandomSC(n, 5*n, 10, rng)
	sys, err := NewSystem(g, RandomNaming(n, rng))
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name  string
		bound float64
		build func() (Scheme, error)
	}{
		{"stretch6", 6, func() (Scheme, error) { return sys.Build(StretchSix, WithSeed(1)) }},
		{"exstretch-k2", 36, func() (Scheme, error) { return sys.Build(ExStretch, WithK(2), WithSeed(2)) }},
		{"exstretch-k3", 7 * 10 * 4, func() (Scheme, error) { return sys.Build(ExStretch, WithK(3), WithSeed(3)) }},
		{"poly-k2", 36, func() (Scheme, error) { return sys.Build(Polynomial, WithK(2)) }},
		{"poly-k3", 80, func() (Scheme, error) { return sys.Build(Polynomial, WithK(3)) }},
	}
	for _, c := range checks {
		sch, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		stats, err := MeasureScheme(sys, sch, 6000, 5)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if stats.Max > c.bound {
			t.Fatalf("%s: measured %.3f > bound %.0f", c.name, stats.Max, c.bound)
		}
		t.Logf("%s: max %.3f mean %.3f (bound %.0f), avg table %.0f words",
			c.name, stats.Max, stats.Mean, c.bound, sch.AvgTableWords())
	}
}

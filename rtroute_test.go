package rtroute

import (
	"math/rand"
	"testing"

	"rtroute/internal/graph"
)

func newTestSystem(t testing.TB, seed int64, n int) *System {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := RandomSC(n, 4*n, 6, rng)
	sys, err := NewSystem(g, RandomNaming(n, rng))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSystemValidation(t *testing.T) {
	if _, err := NewSystem(graph.New(1), nil); err == nil {
		t.Fatal("single node accepted")
	}
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	if _, err := NewSystem(g, nil); err == nil {
		t.Fatal("non-strongly-connected graph accepted")
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := NewSystem(RandomSC(10, 20, 3, rng), IdentityNaming(5)); err == nil {
		t.Fatal("mismatched naming accepted")
	}
}

func TestSystemDefaultsToIdentityNaming(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sys, err := NewSystem(RandomSC(10, 30, 3, rng), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Naming.Name(3) != 3 {
		t.Fatal("default naming is not identity")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	sys := newTestSystem(t, 3, 30)
	schemes := make([]Scheme, 0, 3)
	s6, err := sys.Build(StretchSix, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	schemes = append(schemes, s6)
	ex, err := sys.Build(ExStretch, WithK(2), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	schemes = append(schemes, ex)
	poly, err := sys.Build(Polynomial, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	schemes = append(schemes, poly)

	for _, sch := range schemes {
		for u := int32(0); u < 30; u += 5 {
			for v := int32(1); v < 30; v += 7 {
				if u == v {
					continue
				}
				tr, err := sch.Roundtrip(u, v)
				if err != nil {
					t.Fatalf("%s roundtrip(%d,%d): %v", sch.SchemeName(), u, v, err)
				}
				st := sys.Stretch(u, v, tr)
				if st < 1 {
					t.Fatalf("%s stretch %.3f below 1", sch.SchemeName(), st)
				}
				if st > 40 {
					t.Fatalf("%s stretch %.3f absurd", sch.SchemeName(), st)
				}
			}
		}
	}
}

func TestSystemMetricHelpers(t *testing.T) {
	sys := newTestSystem(t, 6, 12)
	for u := int32(0); u < 12; u++ {
		for v := int32(0); v < 12; v++ {
			want := sys.D(u, v) + sys.D(v, u)
			if got := sys.R(u, v); got != want {
				t.Fatalf("R(%d,%d) = %d, want %d", u, v, got, want)
			}
		}
	}
}

func TestMeasureSchemeFacade(t *testing.T) {
	sys := newTestSystem(t, 7, 20)
	s6, err := sys.Build(StretchSix, WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := MeasureScheme(sys, s6, 100, 9)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pairs == 0 || stats.Max > 6 || stats.Mean < 1 {
		t.Fatalf("implausible stats %+v", stats)
	}
}

func TestLowerBoundFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := Grid(3, 4, rng)
	sys, err := NewSystem(g, RandomNaming(g.N(), rng))
	if err != nil {
		t.Fatal(err)
	}
	s6, err := sys.Build(StretchSix, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	reports, err := AnalyzeLowerBound(sys, s6)
	if err != nil {
		t.Fatal(err)
	}
	sum := SummarizeLowerBound(reports)
	if sum.Pairs != g.N()*(g.N()-1) {
		t.Fatalf("pairs %d, want %d", sum.Pairs, g.N()*(g.N()-1))
	}
	if sum.MaxRoundtripStretch > 6 {
		t.Fatalf("stretch bound violated: %f", sum.MaxRoundtripStretch)
	}
}

func TestBuildPolynomialVariant(t *testing.T) {
	sys := newTestSystem(t, 12, 16)
	poly, err := sys.Build(Polynomial, WithK(2), WithScaleBase(1.5), WithCoverVariant(CoverBallGrowing))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := poly.Roundtrip(sys.Naming.Name(0), sys.Naming.Name(7)); err != nil {
		t.Fatal(err)
	}
}

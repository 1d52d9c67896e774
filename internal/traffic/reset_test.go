package traffic

import (
	"math/rand"
	"testing"

	"rtroute/internal/core"
	"rtroute/internal/cover"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/rtz"
	"rtroute/internal/sim"
)

// resetPlanes builds one instance of every servable plane kind over a
// shared network, for the header-reuse certification tests.
func resetPlanes(t *testing.T, n int, seed int64) []struct {
	name  string
	plane sim.Plane
} {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomSC(n, 4*n, 6, rng)
	m := graph.AllPairs(g)
	perm := names.Random(n, rng)

	s6, err := core.NewStretchSix(g, m, perm, rng, core.Stretch6Config{})
	if err != nil {
		t.Fatal(err)
	}
	s6v, err := core.NewStretchSix(g, m, perm, rng, core.Stretch6Config{ViaSource: true})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := core.NewExStretch(g, m, perm, rng, core.ExStretchConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	poly, err := core.NewPolynomialStretch(g, m, perm, core.PolyConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rtz.New(g, m, rng, rtz.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rzp, err := core.NewRTZPlane(sub, perm)
	if err != nil {
		t.Fatal(err)
	}
	h, err := cover.BuildHierarchy(g, m, 2, 2, cover.VariantAwerbuchPeleg)
	if err != nil {
		t.Fatal(err)
	}
	hpp, err := core.NewHopPlane(g, h, perm)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name  string
		plane sim.Plane
	}{
		{"stretch6", s6},
		{"stretch6-via-source", s6v},
		{"exstretch-k2", ex},
		{"poly-k2", poly},
		{"rtz", rzp},
		{"hop", hpp},
	}
}

// TestResetHeaderMatchesNewHeader certifies the reuse contract on every
// plane: a stream served through one reused header must produce flight-
// identical results to fresh per-roundtrip headers.
func TestResetHeaderMatchesNewHeader(t *testing.T) {
	const n = 32
	for _, tc := range resetPlanes(t, n, 23) {
		t.Run(tc.name, func(t *testing.T) {
			var hdr sim.Header
			for s := int32(0); s < n; s++ {
				for _, d := range []int32{(s + 1) % n, (s + n/2) % n, (s*5 + 2) % n} {
					if s == d {
						continue
					}
					fo, fb, err := sim.RoundtripFlight(tc.plane, s, d, 0)
					if err != nil {
						t.Fatalf("fresh (%d,%d): %v", s, d, err)
					}
					var ro, rb sim.Flight
					ro, rb, hdr, err = sim.RoundtripFlightReusing(tc.plane, hdr, s, d, 0)
					if err != nil {
						t.Fatalf("reused (%d,%d): %v", s, d, err)
					}
					if ro != fo || rb != fb {
						t.Fatalf("pair (%d,%d): reused %+v/%+v != fresh %+v/%+v", s, d, ro, rb, fo, fb)
					}
				}
			}
		})
	}
}

// TestRoundtripFlightAllocs is the header-lifecycle allocation gate:
// a fresh-header roundtrip costs O(1) allocations (the header), and a
// reused-header roundtrip costs zero on every plane.
func TestRoundtripFlightAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n = 32
	for _, tc := range resetPlanes(t, n, 29) {
		t.Run(tc.name, func(t *testing.T) {
			pl, err := Compile(tc.plane)
			if err != nil {
				t.Fatal(err)
			}
			pairs := [][2]int32{{0, 9}, {3, 17}, {8, 25}, {30, 2}, {12, 21}}
			// Warm: allocate the reusable header and grow its storage.
			var hdr sim.Header
			for _, pr := range pairs {
				if _, _, hdr, err = sim.RoundtripFlightReusing(pl, hdr, pr[0], pr[1], 0); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			allocs := testing.AllocsPerRun(100, func() {
				pr := pairs[i%len(pairs)]
				i++
				var err error
				if _, _, hdr, err = sim.RoundtripFlightReusing(pl, hdr, pr[0], pr[1], 0); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("reused-header roundtrip allocates %.1f times, want 0", allocs)
			}
			freshAllocs := testing.AllocsPerRun(100, func() {
				pr := pairs[i%len(pairs)]
				i++
				if _, _, err := sim.RoundtripFlight(pl, pr[0], pr[1], 0); err != nil {
					t.Fatal(err)
				}
			})
			if freshAllocs > 3 {
				t.Fatalf("fresh-header roundtrip allocates %.1f times, want O(1) (<= 3)", freshAllocs)
			}
		})
	}
}

// Traffic-engine acceptance tests (experiment E12 / scaling study S3):
// the facade-level smoke run always executes; the million-packet
// large-scale certification runs under RTROUTE_LARGE=1 (make
// traffic-large), mirroring the lazy-oracle acceptance gate.
package rtroute

import (
	"math/rand"
	"os"
	"runtime"
	"testing"

	"rtroute/internal/eval"
	"rtroute/internal/traffic"
)

func TestServeTrafficFacade(t *testing.T) {
	sys := newTestSystem(t, 5, 64)
	s6, err := sys.Build(StretchSix, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []WorkloadKind{WorkloadUniform, WorkloadZipf, WorkloadHotspot, WorkloadRPC} {
		res, err := sys.ServeTraffic(s6, TrafficConfig{
			Workers: 4, Packets: 2000, Seed: 5,
			Workload: TrafficWorkload{Kind: kind},
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.Packets != 2000 {
			t.Fatalf("%s: served %d packets, want 2000", kind, res.Packets)
		}
		if res.Stretch.Max > 6.0000001 {
			t.Fatalf("%s: stretch-6 bound violated: max %v", kind, res.Stretch.Max)
		}
		if res.Stretch.P50 < 1 || res.Stretch.P99 < res.Stretch.P50 {
			t.Fatalf("%s: implausible stretch quantiles %+v", kind, res.Stretch)
		}
		if FormatTraffic(res) == "" {
			t.Fatalf("%s: empty report", kind)
		}
	}
}

func TestServeTrafficSubstratePlanes(t *testing.T) {
	sys := newTestSystem(t, 8, 48)
	rtzPlane, err := sys.Build(RTZStretch3, WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	hopPlane, err := sys.Build(HopSubstrate, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	for name, plane := range map[string]ForwardingPlane{"rtz": rtzPlane, "hop": hopPlane} {
		res, err := sys.ServeTraffic(plane, TrafficConfig{
			Workers: 2, Packets: 1000, Seed: 8,
			Workload: TrafficWorkload{Kind: WorkloadZipf},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Packets != 1000 {
			t.Fatalf("%s: served %d packets", name, res.Packets)
		}
	}
}

// TestTrafficLargeScale is the E12 acceptance run: >= 1,000,000 packets
// through a >= 1,000-node StretchSix scheme built over the bounded lazy
// oracle, served across GOMAXPROCS workers, with stretch certified
// against single-threaded sim.Run replays of the same seeded streams.
func TestTrafficLargeScale(t *testing.T) {
	if os.Getenv("RTROUTE_LARGE") == "" {
		t.Skip("set RTROUTE_LARGE=1 (make traffic-large) to run the million-packet acceptance test")
	}
	const (
		n       = 1000
		seed    = 1
		packets = 1_000_000
	)
	rng := rand.New(rand.NewSource(seed))
	g := RandomSC(n, 4*n, 8, rng)
	sys, err := NewSystemWith(g, RandomNaming(n, rng), SystemConfig{Metric: MetricLazy})
	if err != nil {
		t.Fatal(err)
	}
	s6, err := sys.Build(StretchSix, WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	workers := runtime.GOMAXPROCS(0)
	spec := TrafficWorkload{Kind: WorkloadZipf, ZipfTheta: 0.9}
	res, err := sys.ServeTraffic(s6, TrafficConfig{
		Workers: workers, Packets: packets, Seed: seed, Workload: spec,
		// Sample every 8th packet for the stretch post-pass: 125k exact
		// measurements, still two lazy-oracle rows per distinct source.
		SampleEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != packets {
		t.Fatalf("served %d packets, want %d", res.Packets, packets)
	}
	if res.Stretch.Max > 6.0000001 {
		t.Fatalf("stretch-6 bound violated under traffic: max %v", res.Stretch.Max)
	}
	t.Logf("n=%d packets=%d workers=%d: %.0f packets/s, %.0f hops/s, stretch p50/p95/p99/max = %.3f/%.3f/%.3f/%.3f (%d sampled)",
		n, packets, workers, res.PacketsPerSec(), res.HopsPerSec(),
		res.Stretch.P50, res.Stretch.P95, res.Stretch.P99, res.Stretch.Max, res.Sampled)

	// Replay every worker's full stream through the single-threaded
	// sim.Run trace path and demand the identical aggregate stats: same
	// hop/weight totals, same sampled stretch multiset. The per-worker
	// quota mirrors the engine's documented partition (base quota with
	// front-loaded remainder).
	wl, err := traffic.NewWorkload(traffic.Spec{Kind: traffic.Zipf, ZipfTheta: 0.9}, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	var (
		hops, weight int64
		stretches    []float64
	)
	base, rem := int64(packets)/int64(workers), int64(packets)%int64(workers)
	for w := 0; w < workers; w++ {
		quota := base
		if int64(w) < rem {
			quota++
		}
		gen := wl.Generator(w)
		for i := int64(0); i < quota; i++ {
			src, dst := gen.Next()
			tr, err := s6.Roundtrip(src, dst)
			if err != nil {
				t.Fatalf("replay worker %d packet %d: %v", w, i, err)
			}
			hops += int64(tr.Hops())
			weight += int64(tr.Weight())
			if i%8 == 0 {
				stretches = append(stretches, sys.Stretch(src, dst, tr))
			}
		}
	}
	if hops != res.Hops || weight != res.Weight {
		t.Fatalf("replay hops/weight %d/%d, engine %d/%d", hops, weight, res.Hops, res.Weight)
	}
	want := eval.QuantilesOf(stretches)
	if want.P50 != res.Stretch.P50 || want.P95 != res.Stretch.P95 ||
		want.P99 != res.Stretch.P99 || want.Max != res.Stretch.Max {
		t.Fatalf("replay stretch quantiles %+v, engine %+v", want, res.Stretch)
	}
	t.Logf("sequential replay of all %d packets matches the concurrent run exactly", packets)
}

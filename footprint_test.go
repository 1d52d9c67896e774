package rtroute

import (
	"bytes"
	"os"
	"rtroute/internal/wire"
	"runtime"
	"testing"
)

// liveHeap is the heap in use after two full collections (the second
// empties the sync.Pools the builders leave their scratch in).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestDeploymentFootprint measures what each paper scheme holds in
// memory against what it ships, on the repo benchmark's build-1k world:
// the built scheme (live heap added by Build, construction state such
// as the cover hierarchy included — the System keeps one hierarchy for
// ExStretch and Polynomial, so it is charged to ExStretch, the first to
// build it, and Polynomial's column leaves it out), the snapshot, and
// the Deployment restored from it (live heap added by UnmarshalScheme
// once the blob is dropped). At n = 256 it gates restored/blob at 1.25× the ratio
// read when restore began to stream, StretchSix's since its dictionaries
// name their addresses in one label store instead of holding them,
// ExStretch's since its handshakes do the same, and Polynomial's since
// its memberships are one sorted hop table per node; with RTROUTE_LARGE=1
// (make footprint) it prints the n = 1024 table DESIGN "Memory" cites.
func TestDeploymentFootprint(t *testing.T) {
	n, large := 256, os.Getenv("RTROUTE_LARGE") != ""
	if large {
		n = 1024
	}
	// The ratios read 0.56, 0.47 and 5.28 (StretchSix 5.86 before its
	// label store; ExStretch 11.27 before its tables were sealed and
	// 3.54-3.57 before its label store; Polynomial 10.45-10.47 while its
	// trees and dictionaries were maps).
	gate := map[SchemeKind]float64{StretchSix: 1.25 * 0.56, ExStretch: 1.25 * 0.47, Polynomial: 1.25 * 5.28}
	g, naming := benchWorld(t, n, 4, 8, false)
	sys, err := NewSystem(g, naming)
	if err != nil {
		t.Fatal(err)
	}
	const mib = 1 << 20
	t.Logf("n=%d  %-11s %12s %12s %12s %14s", n, "scheme", "built MiB", "blob MiB", "restored MiB", "restored/blob")
	for _, kind := range []SchemeKind{StretchSix, ExStretch, Polynomial} {
		h0 := liveHeap()
		sch, err := sys.Build(kind, WithK(2), WithSeed(2))
		if err != nil {
			t.Fatal(err)
		}
		built := liveHeap() - h0
		blob, err := wire.MarshalScheme(sch)
		if err != nil {
			t.Fatal(err)
		}
		sch = nil
		blob = bytes.Clone(blob) // one allocation of the blob's own size
		size := int64(len(blob))
		h1 := liveHeap()
		dep, err := UnmarshalScheme(blob)
		if err != nil {
			t.Fatal(err)
		}
		blob = nil
		restored := liveHeap() - h1 + size
		runtime.KeepAlive(dep)
		ratio := float64(restored) / float64(size)
		t.Logf("n=%d  %-11s %12.2f %12.2f %12.2f %14.2f", n, kind, float64(built)/mib, float64(size)/mib, float64(restored)/mib, ratio)
		if !large && ratio > gate[kind] {
			t.Errorf("%v: restored Deployment holds %.2f× its %d-byte snapshot, gate %.2f×", kind, ratio, size, gate[kind])
		}
	}
}

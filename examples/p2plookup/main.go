// P2P lookup: the application the paper's conclusion motivates. Peers in
// an overlay choose their own opaque names (here 128-bit-style strings);
// the §1.1.2 hashing reduction maps them onto the TINN name space
// {0..n-1}; object lookups are request/acknowledgment roundtrips routed
// by the stretch-6 scheme. Collisions under the hash are disambiguated
// by the full name carried in the application payload, exactly the
// constant-factor dictionary blowup the reduction promises.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"rtroute"
)

func main() {
	const n = 64
	rng := rand.New(rand.NewSource(23))

	// A scale-free overlay: the degree distribution of real P2P systems.
	g := rtroute.ScaleFreeSC(n, 3, 4, rng)

	// Peers pick their own names with no coordination.
	fullNames := make([]string, n)
	for i := range fullNames {
		fullNames[i] = fmt.Sprintf("peer-%016x", rng.Uint64())
	}

	// The hashed slots are NOT a permutation (collisions happen), so
	// NamedSystem assigns each peer a TINN name by bucket order: peers in
	// the same slot get consecutive names — the "constant blowup" bucket.
	ns, err := rtroute.NewNamedSystem(g, fullNames, rng)
	if err != nil {
		log.Fatal(err)
	}
	scheme, err := ns.Sys.Build(rtroute.StretchSix, rtroute.WithSeed(5))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("overlay: %d peers, %d links; max bucket %d peers/slot\n\n", g.N(), g.M(), ns.Dir.MaxBucket())
	fmt.Printf("%-22s %-22s %9s %9s %8s\n", "requester", "object holder", "optimal", "routed", "stretch")

	lookups := 0
	var worst float64
	for lookups < 10 {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		lookups++
		src, dst := fullNames[a], fullNames[b]
		// A lookup knows only the holder's self-chosen name; the TINN
		// name comes from the shared hash + bucket discipline.
		tr, err := ns.Roundtrip(scheme, src, dst)
		if err != nil {
			log.Fatal(err)
		}
		s, err := ns.Stretch(src, dst, tr)
		if err != nil {
			log.Fatal(err)
		}
		if s > worst {
			worst = s
		}
		fmt.Printf("%-22s %-22s %9d %9d %8.3f\n", src, dst, ns.Sys.R(tinn(ns, src), tinn(ns, dst)), tr.Weight(), s)
	}
	fmt.Printf("\nworst lookup stretch %.3f (bound 6); request+ack both routed compactly\n", worst)
}

// tinn resolves a peer's self-chosen name to its TINN name.
func tinn(ns *rtroute.NamedSystem, full string) int32 {
	nm, err := ns.TINNName(full)
	if err != nil {
		log.Fatal(err)
	}
	return nm
}

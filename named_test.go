package rtroute

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestNamedSystemEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 32
	g := RandomSC(n, 4*n, 6, rng)
	fullNames := make([]string, n)
	for i := range fullNames {
		fullNames[i] = fmt.Sprintf("peer-%04x", rng.Uint32()&0xffff|uint32(i)<<16)
	}
	ns, err := NewNamedSystem(g, fullNames, rng)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := ns.Sys.Build(StretchSix, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 3 {
		for j := 1; j < n; j += 5 {
			if i == j {
				continue
			}
			tr, err := ns.Roundtrip(sch, fullNames[i], fullNames[j])
			if err != nil {
				t.Fatalf("roundtrip %s -> %s: %v", fullNames[i], fullNames[j], err)
			}
			st, err := ns.Stretch(fullNames[i], fullNames[j], tr)
			if err != nil {
				t.Fatal(err)
			}
			if st < 1 || st > 6 {
				t.Fatalf("stretch %.3f outside [1,6] for %s -> %s", st, fullNames[i], fullNames[j])
			}
		}
	}
}

func TestNamedSystemNameResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := RandomSC(10, 40, 3, rng)
	fullNames := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	ns, err := NewNamedSystem(g, fullNames, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Every self-chosen name resolves to the TINN name its node carries,
	// and the resolution is a permutation of {0..n-1}.
	seen := make(map[int32]bool, len(fullNames))
	for v, full := range fullNames {
		nm, err := ns.TINNName(full)
		if err != nil {
			t.Fatal(err)
		}
		if nm < 0 || int(nm) >= len(fullNames) || seen[nm] {
			t.Fatalf("%q resolves to %d: out of range or taken twice", full, nm)
		}
		seen[nm] = true
		if got := ns.Sys.Naming.Name(int32(v)); got != nm {
			t.Fatalf("%q resolves to %d, but its node %d is named %d", full, nm, v, got)
		}
	}
	if _, err := ns.TINNName("nobody"); err == nil {
		t.Fatal("unknown name resolved")
	}
}

func TestNamedSystemValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := RandomSC(4, 8, 2, rng)
	if _, err := NewNamedSystem(g, []string{"x", "y"}, rng); err == nil {
		t.Fatal("name-count mismatch accepted")
	}
	if _, err := NewNamedSystem(g, []string{"x", "y", "x", "z"}, rng); err == nil {
		t.Fatal("duplicate names accepted")
	}
}

func TestNamedSystemDeterministic(t *testing.T) {
	g := func() *Graph {
		rng := rand.New(rand.NewSource(4))
		return RandomSC(12, 48, 4, rng)
	}
	fullNames := make([]string, 12)
	for i := range fullNames {
		fullNames[i] = fmt.Sprintf("node-%d", i*7)
	}
	a, err := NewNamedSystem(g(), fullNames, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNamedSystem(g(), fullNames, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for _, full := range fullNames {
		na, _ := a.TINNName(full)
		nb, _ := b.TINNName(full)
		if na != nb {
			t.Fatalf("nondeterministic TINN assignment for %q: %d vs %d", full, na, nb)
		}
	}
}

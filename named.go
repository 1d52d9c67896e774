package rtroute

import (
	"fmt"
	"math/rand"
)

// NamedSystem wraps a System for deployments where nodes choose their own
// opaque string names (the §1.1.2 model): it applies the hashing
// reduction end to end, so callers route by string name and never see
// the internal {0..n-1} TINN names.
type NamedSystem struct {
	Sys *System
	Dir *Directory

	nameOf map[string]int32 // full name -> TINN name
}

// NewNamedSystem builds a NamedSystem over g. fullNames[v] is the
// self-chosen name of node v; names must be unique. The TINN permutation
// is derived from the hash directory: colliding names share a slot and
// receive consecutive TINN names (the constant-factor bucket blowup).
func NewNamedSystem(g *Graph, fullNames []string, rng *rand.Rand) (*NamedSystem, error) {
	n := g.N()
	if len(fullNames) != n {
		return nil, fmt.Errorf("rtroute: %d names for %d nodes", len(fullNames), n)
	}
	dir, err := NewDirectory(fullNames, n, rng)
	if err != nil {
		return nil, err
	}
	// Assign TINN names by slot order, buckets flattened: walking the
	// slots 0..n-1 keeps the assignment deterministic given the hash.
	nameOf := make(map[string]int32, n)
	next := int32(0)
	for slot := int32(0); slot < int32(n); slot++ {
		for _, full := range dir.Bucket(slot) {
			nameOf[full] = next
			next++
		}
	}
	permNames := make([]int32, n)
	for v, full := range fullNames {
		permNames[v] = nameOf[full]
	}
	naming, err := NewNaming(permNames)
	if err != nil {
		return nil, err
	}
	sys, err := NewSystem(g, naming)
	if err != nil {
		return nil, err
	}
	return &NamedSystem{Sys: sys, Dir: dir, nameOf: nameOf}, nil
}

// TINNName resolves a self-chosen name to its TINN name.
func (ns *NamedSystem) TINNName(fullName string) (int32, error) {
	nm, ok := ns.nameOf[fullName]
	if !ok {
		return 0, fmt.Errorf("rtroute: unknown name %q", fullName)
	}
	return nm, nil
}

// Roundtrip routes between two self-chosen names over the given scheme.
func (ns *NamedSystem) Roundtrip(sch Scheme, srcFull, dstFull string) (*RoundtripTrace, error) {
	src, err := ns.TINNName(srcFull)
	if err != nil {
		return nil, err
	}
	dst, err := ns.TINNName(dstFull)
	if err != nil {
		return nil, err
	}
	return sch.Roundtrip(src, dst)
}

// Stretch returns the measured stretch of a trace between two self-chosen
// names.
func (ns *NamedSystem) Stretch(srcFull, dstFull string, tr *RoundtripTrace) (float64, error) {
	src, err := ns.TINNName(srcFull)
	if err != nil {
		return 0, err
	}
	dst, err := ns.TINNName(dstFull)
	if err != nil {
		return 0, err
	}
	return ns.Sys.Stretch(src, dst, tr), nil
}

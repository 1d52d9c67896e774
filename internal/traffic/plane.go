package traffic

import (
	"fmt"

	"rtroute/internal/sim"
)

// Plane is a compiled forwarding plane: a sim.Plane certified for
// concurrent service. Compile seals the graph's CSR index eagerly and
// probes one roundtrip so a misconfigured plane fails at compile time,
// not packet 731,204 of a run.
type Plane struct {
	sim.Plane
	n int
}

// N returns the size of the plane's name universe.
func (p *Plane) N() int { return p.n }

// flattenable is implemented by wrappers (core.Deployment) whose
// per-hop dispatch provably reduces to an inner plane; Compile
// substitutes the inner plane so serving pays no indirection tax.
type flattenable interface {
	Flatten() sim.Plane
}

// Compile freezes a forwarding surface for concurrent service. The
// returned plane shares the scheme's tables — compilation adds no copy;
// its guarantee is that everything the hot path touches (tables, CSR
// port index) is fully built and read-only before the first worker
// starts, so the engine's goroutines forward with zero locks. Wrapper
// planes that can prove an indirection-free equivalent (a Deployment
// forwards with one assembled scheme behind a bounds check) are flattened
// here, at compile time, rather than on every hop.
func Compile(p sim.Plane) (*Plane, error) {
	if p == nil {
		return nil, fmt.Errorf("traffic: nil plane")
	}
	for {
		f, ok := p.(flattenable)
		if !ok {
			break
		}
		inner := f.Flatten()
		if inner == nil || inner == p {
			break
		}
		p = inner
	}
	g := p.Graph()
	if g == nil {
		return nil, fmt.Errorf("traffic: plane has no graph")
	}
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("traffic: plane needs at least 2 nodes, got %d", n)
	}
	g.Seal()
	// Probe one roundtrip between two arbitrary names; names are a
	// permutation of {0..n-1}, so 0 and 1 always exist.
	if _, _, err := sim.RoundtripFlight(p, 0, 1, 0); err != nil {
		return nil, fmt.Errorf("traffic: compile probe: %w", err)
	}
	return &Plane{Plane: p, n: n}, nil
}

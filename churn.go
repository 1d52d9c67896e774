package rtroute

import (
	"fmt"

	"rtroute/internal/churn"
	"rtroute/internal/sim"
)

// Re-exported churn surface, so drivers configure the dynamic-topology
// plane without importing internal packages.
type (
	// ChurnMix weights the event kinds a churn model draws from.
	ChurnMix = churn.Mix
	// ChurnEvent is one timestamped topology event.
	ChurnEvent = churn.Event
	// DamperOptions tunes the per-link flap damper (RFC 2439 shape).
	DamperOptions = churn.DamperConfig
	// ChurnOverlay drives a mutable graph under churn events.
	ChurnOverlay = churn.Overlay
	// ChurnModel draws seeded, replayable Poisson-clocked event streams.
	ChurnModel = churn.Model
)

// DefaultChurnMix is the standard event-kind weighting.
var DefaultChurnMix = churn.DefaultMix

// ErrUnroutable matches (via errors.Is) roundtrips that failed typed on
// an administratively down link before repair caught up.
var ErrUnroutable = sim.ErrUnroutable

// NewChurnOverlay wraps the system's graph for churn; damper fields at
// zero select the RFC-flavored defaults.
func NewChurnOverlay(g *Graph, damper DamperOptions) (*ChurnOverlay, error) {
	return churn.NewOverlay(g, churn.NewDamper(damper))
}

// NewChurnModel creates a seeded event model over an overlay; the event
// stream is a pure function of (seed, rate, mix).
func NewChurnModel(ov *ChurnOverlay, seed int64, rate float64, mix ChurnMix, maxW Dist) *ChurnModel {
	return churn.NewModel(ov, seed, rate, mix, maxW)
}

// Replica is one private copy of a served scheme under churn: a
// maintained plane, the overlay that mutates the plane's own graph, and
// the deployment that routes through it. A replica repairs only the
// table slice it is bound to, so replicas built from the same seed and
// fed the same batches stay bit-identical on the nodes each one owns —
// the contract rtserve -repair arms per daemon (one replica, one owned
// slice, per process). RunChurnCluster binds its two to every node: the
// fabric's, which all of a process's shards share, and the reference.
type Replica struct {
	m    *Maintained
	ov   *ChurnOverlay
	dep  *Deployment
	owns func(NodeID) bool
	// last is the most recent repair's anatomy.
	last MaintainReport
}

// NewReplica builds kind over sys exactly as BuildWith would, wrapped
// for incremental maintenance, with a churn overlay over sys.Graph
// (flap damper at its defaults). Repairs mutate that graph, so sys must
// not be shared with another replica.
func NewReplica(sys *System, kind SchemeKind, cfg BuildConfig) (*Replica, error) {
	m, err := sys.BuildMaintained(kind, func(c *BuildConfig) { *c = cfg })
	if err != nil {
		return nil, err
	}
	ov, err := NewChurnOverlay(sys.Graph, DamperOptions{})
	if err != nil {
		return nil, err
	}
	return &Replica{m: m, ov: ov}, nil
}

// Bind names what repairs keep current: dep is rebound to the repaired
// plane after every repair, and per-node rebuilds are restricted to the
// nodes owns reports true for (nil repairs every node).
func (r *Replica) Bind(dep *Deployment, owns func(NodeID) bool) {
	r.dep, r.owns = dep, owns
}

// Repair folds one event batch into the overlay and repairs the bound
// slice. It is what a cluster shard's Options.Repair hook runs: called
// between two served batches by every shard serving the bound
// deployment (the daemon's one, or all of the in-process fabric's), in
// sequence order, so nothing routes on it while it runs, in-flight
// roundtrips resume on the repaired epoch or come back as typed drops,
// and nothing ever routes on a half-patched table.
func (r *Replica) Repair(seq uint64, events []ChurnEvent) error {
	dirty, err := r.ov.ApplyBatch(events)
	if err == nil {
		err = r.rebuild(dirty)
	}
	if err != nil {
		return fmt.Errorf("churn batch %d: %w", seq, err)
	}
	return nil
}

// rebuild repairs the bound slice for a dirty set the overlay has
// already been advanced past.
func (r *Replica) rebuild(dirty []NodeID) error {
	rep, err := r.m.RebuildNodesFor(dirty, r.owns)
	if err != nil {
		return err
	}
	r.last = rep
	r.dep.Rebind(r.m.Plane())
	return nil
}

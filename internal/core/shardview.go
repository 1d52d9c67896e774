package core

import (
	"fmt"

	"rtroute/internal/graph"
	"rtroute/internal/sim"
)

// ShardView is the slice of a Deployment one cluster shard serves: the
// per-node tables of the nodes assigned to that shard, plus the
// injection surface (NewHeader/BeginReturn and the naming), which is the
// model's source-side global knowledge and therefore available on every
// shard. Forwarding is the restricted part — a ShardView refuses to
// forward at a node another shard owns, so a serving layer built on it
// provably touches only shard-local routing state between boundary
// crossings.
//
// A ShardView implements sim.Plane; like the Deployment it views, it is
// safe for any number of concurrent goroutines.
type ShardView struct {
	dep   *Deployment
	shard int32
	owner []int32 // node -> owning shard
}

// ShardView returns the view of d restricted to the nodes that
// owner assigns to the given shard. owner must map every node to a
// non-negative shard index; the slice is retained, not copied — callers
// must not mutate it afterwards.
func (d *Deployment) ShardView(shard int, owner []int32) (*ShardView, error) {
	n := d.Graph().N()
	if len(owner) != n {
		return nil, fmt.Errorf("core: shard view: owner maps %d nodes, deployment has %d", len(owner), n)
	}
	if shard < 0 {
		return nil, fmt.Errorf("core: shard view: negative shard %d", shard)
	}
	nodes := 0
	for v, s := range owner {
		if s < 0 {
			return nil, fmt.Errorf("core: shard view: node %d assigned to negative shard %d", v, s)
		}
		if int(s) == shard {
			nodes++
		}
	}
	if nodes == 0 {
		return nil, fmt.Errorf("core: shard view: shard %d owns no nodes", shard)
	}
	return &ShardView{dep: d, shard: int32(shard), owner: owner}, nil
}

var _ sim.Plane = (*ShardView)(nil)

// Shard returns the shard index this view serves.
func (v *ShardView) Shard() int { return int(v.shard) }

// Deployment returns the deployment the view restricts.
func (v *ShardView) Deployment() *Deployment { return v.dep }

// Owns reports whether this shard serves the given node.
func (v *ShardView) Owns(node graph.NodeID) bool {
	return node >= 0 && int(node) < len(v.owner) && v.owner[node] == v.shard
}

// OwnsName reports whether this shard serves the named node. Unlike
// NodeOf it tolerates names outside the deployment — it reports false —
// because the lazy flight-frame decoder probes it with names taken
// straight from untrusted network input.
func (v *ShardView) OwnsName(name int32) bool {
	if name < 0 || int(name) >= len(v.owner) {
		return false
	}
	return v.Owns(v.dep.NodeOf(name))
}

// Owner returns the shard that serves the given node.
func (v *ShardView) Owner(node graph.NodeID) int { return int(v.owner[node]) }

// NodeCount returns how many nodes this shard owns.
func (v *ShardView) NodeCount() int {
	n := 0
	for _, s := range v.owner {
		if s == v.shard {
			n++
		}
	}
	return n
}

// Forward implements sim.Forwarder for shard-local nodes only: a packet
// at a foreign node is a serving-layer bug (it should have been framed
// and shipped to its owner), reported as an error rather than silently
// forwarded with state this shard does not hold.
func (v *ShardView) Forward(at graph.NodeID, h sim.Header) (graph.PortID, bool, error) {
	if !v.Owns(at) {
		if at < 0 || int(at) >= len(v.owner) {
			return 0, false, fmt.Errorf("core: shard %d asked to forward at nonexistent node %d", v.shard, at)
		}
		return 0, false, fmt.Errorf("core: shard %d asked to forward at node %d owned by shard %d",
			v.shard, at, v.owner[at])
	}
	return v.dep.Forward(at, h)
}

// NewHeader implements sim.Plane (injection-side global knowledge).
func (v *ShardView) NewHeader(srcName, dstName int32) (sim.Header, error) {
	return v.dep.NewHeader(srcName, dstName)
}

// ResetHeader implements sim.Plane.
func (v *ShardView) ResetHeader(h sim.Header, srcName, dstName int32) error {
	return v.dep.ResetHeader(h, srcName, dstName)
}

// BeginReturn implements sim.Plane.
func (v *ShardView) BeginReturn(h sim.Header) error { return v.dep.BeginReturn(h) }

// NodeOf implements sim.Plane.
func (v *ShardView) NodeOf(name int32) graph.NodeID { return v.dep.NodeOf(name) }

// Graph implements sim.Plane.
func (v *ShardView) Graph() *graph.Graph { return v.dep.Graph() }

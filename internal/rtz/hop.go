package rtz

import (
	"fmt"

	"rtroute/internal/cover"
	"rtroute/internal/graph"
	"rtroute/internal/tree"
)

// Handshake is R2(u,v) (§3.3): the name of the most convenient double
// tree for routing between u and v, together with the topology-dependent
// tree addresses of both endpoints. It is valid only at u and v (and
// inside the tree), not globally — exactly the limitation §3.3 notes.
type Handshake struct {
	Ref    cover.TreeRef
	ULabel tree.Label
	VLabel tree.Label
}

// Words returns the handshake size in machine words (o(log^2 n) bits).
func (hs Handshake) Words() int { return 2 + hs.ULabel.Words() + hs.VLabel.Words() }

// HopTable is the node-local storage of the Lemma 5 hop substrate: one
// membership per double-tree containing the node, across all levels of
// the hierarchy, in (level, index) order. On a built plane Trees is the
// hierarchy's own slice (cover.Hierarchy.Memberships), shared by every
// plane over it.
type HopTable struct {
	Self  graph.NodeID
	Trees []cover.Membership
}

// Words returns the table size in machine words.
func (t *HopTable) Words() int { return 1 + 9*len(t.Trees) }

// Find returns the position of tree ref's entry in t.Trees. A node
// belongs to few trees (7.6 on average and 16 at most on a random
// 1,024-node graph at k = 2), where a scan of the refs is cheaper than
// a bisection's compares.
func (t *HopTable) Find(ref cover.TreeRef) (int, bool) {
	for i := range t.Trees {
		if t.Trees[i].Ref == ref {
			return i, true
		}
	}
	return 0, false
}

// HopHeader is the packet state for one Hop(u,v) leg.
type HopHeader struct {
	Ref        cover.TreeRef
	Target     tree.Label
	Descending bool
}

// Words returns the header size in machine words.
func (h HopHeader) Words() int { return 3 + h.Target.Words() }

// ForwardHop is the local forwarding function for a hop leg: climb the
// named tree's in-tree to the root, then descend the out-tree to the
// target label. Deliver as soon as the local state matches the target.
func ForwardHop(tab *HopTable, h *HopHeader) (port graph.PortID, delivered bool, err error) {
	i, ok := tab.Find(h.Ref)
	if !ok {
		return 0, false, fmt.Errorf("rtz: node %d is outside tree %v", tab.Self, h.Ref)
	}
	e := &tab.Trees[i]
	if e.State.Tin == h.Target.Tin {
		return 0, true, nil
	}
	if !h.Descending {
		if e.IsRoot {
			h.Descending = true
		} else {
			return e.InPort, false, nil
		}
	}
	p, done, err := tree.NextPort(e.State, h.Target)
	if err != nil {
		return 0, false, fmt.Errorf("rtz: hop descent at %d: %w", tab.Self, err)
	}
	if done {
		return 0, true, nil
	}
	return p, false, nil
}

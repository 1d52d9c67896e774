package core

import (
	"rtroute/internal/cover"
	"rtroute/internal/graph"
)

// HierarchyOf returns the cover hierarchy an ExStretch or
// PolynomialStretch was built on, for the external tests; nil for any
// other plane.
func HierarchyOf(s Scheme) *cover.Hierarchy {
	switch p := s.(type) {
	case *ExStretch:
		return p.hier
	case *PolynomialStretch:
		return p.hier
	}
	return nil
}

// MembershipsOf returns the hop-substrate memberships an ExStretch,
// PolynomialStretch or HopPlane holds at node v, for the external tests.
func MembershipsOf(s Scheme, v graph.NodeID) []cover.Membership {
	switch p := s.(type) {
	case *ExStretch:
		return p.nodes[v].hopTab.Trees
	case *PolynomialStretch:
		return p.nodes[v].hop.Trees
	case *HopPlane:
		return p.tables[v].Trees
	}
	return nil
}

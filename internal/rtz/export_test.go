package rtz

import "rtroute/internal/graph"

// FilterMask is filterMask, for the external fuzz target.
var FilterMask = filterMask

// Recompiled runs a repair's recompile of t's direct entries
// (Table.recompiled): t's own entries for every destination drop
// refuses, then dst[i] on port[i] for each i.
func Recompiled(t *Table, drop func(graph.NodeID) bool, dst []graph.NodeID, port []graph.PortID) *Table {
	adds := make([]directEntry, len(dst))
	for i := range adds {
		adds[i] = directEntry{dst[i], port[i]}
	}
	return t.recompiled(drop, adds)
}

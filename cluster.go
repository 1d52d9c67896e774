package rtroute

import (
	"rtroute/internal/cluster"
	"rtroute/internal/core"
	"rtroute/internal/telemetry"
	"rtroute/internal/wire"
)

// Cluster serving re-exports (experiment E15 / scaling study S6): shard
// a Deployment's per-node tables across S serving shards and forward
// packets between shards as wire-encoded frames — the in-process
// channel-bus engine here, the TCP daemons via cmd/rtserve.
type (
	// ClusterConfig parameterizes one in-process cluster run.
	ClusterConfig = cluster.Config
	// ClusterResult aggregates one cluster run's serving stats,
	// including the cross-shard hop accounting.
	ClusterResult = cluster.Result
	// PlacementPolicy selects how nodes are partitioned across shards.
	PlacementPolicy = cluster.Policy
	// Placement maps every node to its owning shard.
	Placement = cluster.Placement
)

// PlaceRTZAligned is the placement policy that co-locates each
// stretch-3 cluster on one shard.
const PlaceRTZAligned = cluster.RTZAligned

// ServeCluster shards the scheme across an in-process cluster —
// cfg.Shards shard mailboxes over a channel bus, packets wire-encoded
// at every shard crossing — and serves cfg.Packets roundtrips through
// it. Schemes that are not already Deployments are decomposed and
// reassembled first (Deploy), since only per-node state may be sharded.
// When cfg.Oracle is nil, the system's own distance oracle supplies the
// stretch accounting.
func (s *System) ServeCluster(sch Scheme, cfg ClusterConfig) (*ClusterResult, error) {
	dep, ok := sch.(*Deployment)
	if !ok {
		var err error
		if dep, err = core.Deploy(sch); err != nil {
			return nil, err
		}
	}
	if cfg.Oracle == nil {
		cfg.Oracle = s.Metric
	}
	return cluster.Run(dep, cfg)
}

// TelemetryEvent is one recorded flight-recorder hop event (experiment
// E16): the cluster engine and the daemons record them into the
// telemetry plane's trace ring.
type TelemetryEvent = telemetry.Event

// FormatTraceTimeline renders recorded flight-recorder events as a
// human-readable hop timeline.
func FormatTraceTimeline(events []TelemetryEvent) string {
	return telemetry.FormatTimeline(events)
}

// SnapshotInfo is a scheme snapshot's cheap preamble: format version,
// scheme kind and node count, readable without decoding any table.
type SnapshotInfo = wire.SnapshotInfo

// PeekSnapshot reads a snapshot's preamble. On a snapshot written by a
// different format version the error wraps ErrSnapshotVersion and the
// info still reports the blob's version.
func PeekSnapshot(data []byte) (SnapshotInfo, error) { return wire.PeekSnapshot(data) }

// ErrSnapshotVersion is wrapped by decode errors caused by a snapshot
// from a different wire-format version (errors.Is-matchable).
var ErrSnapshotVersion = wire.ErrVersion

// SnapshotVersion is the wire-format version this build reads and
// writes.
const SnapshotVersion = wire.Version

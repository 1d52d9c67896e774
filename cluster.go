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
	// ClusterShardStats is one shard's serving record.
	ClusterShardStats = cluster.ShardStats
	// PlacementPolicy selects how nodes are partitioned across shards.
	PlacementPolicy = cluster.Policy
	// Placement maps every node to its owning shard.
	Placement = cluster.Placement
)

// Placement policies for ClusterConfig.Placement.
const (
	// PlaceContiguous racks nodes by index range.
	PlaceContiguous = cluster.Contiguous
	// PlaceHash scatters nodes by hashed index.
	PlaceHash = cluster.Hash
	// PlaceRTZAligned co-locates each stretch-3 cluster on one shard.
	PlaceRTZAligned = cluster.RTZAligned
)

// NewPlacement partitions a deployment's nodes across shards under the
// given policy (deterministic for a given deployment, count and policy).
func NewPlacement(dep *Deployment, shards int, policy PlacementPolicy) (*Placement, error) {
	return cluster.NewPlacement(dep, shards, policy)
}

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

// Telemetry re-exports (experiment E16): the observability plane the
// cluster engine and the daemons thread their counters, sampled stage
// timings, heat sketches and hop traces through. Attach a sink via
// ClusterConfig.Sink (its SinkShape method produces the matching
// TelemetryConfig) and read it back with Snapshot.
type (
	// TelemetryConfig sizes a telemetry sink (probe shape, sampling
	// strides, trace ring, heat sketch).
	TelemetryConfig = telemetry.Config
	// TelemetrySink owns the probes of one instrumented run; nil turns
	// the plane off everywhere.
	TelemetrySink = telemetry.Sink
	// TelemetryEvent is one recorded flight-recorder hop event.
	TelemetryEvent = telemetry.Event
)

// NewTelemetrySink creates a sink for the given probe shape.
func NewTelemetrySink(cfg TelemetryConfig) *TelemetrySink { return telemetry.New(cfg) }

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

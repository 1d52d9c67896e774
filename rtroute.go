// Package rtroute is a Go implementation of compact roundtrip routing
// with topology-independent node names (TINN), reproducing
//
//	Marta Arias, Lenore J. Cowen, Kofi A. Laing,
//	"Compact roundtrip routing with topology-independent node names",
//	PODC 2003 / J. Computer and System Sciences 74 (2008) 775-795.
//
// The library routes packets in strongly connected directed weighted
// networks where node names carry no topological information (an
// adversarial permutation of {0..n-1}), ports are labeled adversarially,
// and a packet arrives carrying only its destination's name. Three
// schemes trade local table size against roundtrip stretch:
//
//   - StretchSix: O~(sqrt n) tables, stretch 6, arbitrary weights (§2);
//   - ExStretch(k): O~(n^(1/k)) tables, stretch exponential in k (§3);
//   - Polynomial(k): O~(k^2 n^(2/k) log D) tables, stretch 8k^2+4k-4 (§4).
//
// Quick start:
//
//	rng := rand.New(rand.NewSource(1))
//	g := rtroute.RandomSC(64, 256, 8, rng)
//	sys, _ := rtroute.NewSystem(g, rtroute.RandomNaming(64, rng))
//	scheme, _ := sys.Build(rtroute.StretchSix, rtroute.WithSeed(42))
//	trace, _ := scheme.Roundtrip(srcName, dstName)
//	fmt.Println(sys.Stretch(srcName, dstName, trace))
//
// Build is the single construction entry point for every scheme kind
// (StretchSix, ExStretch, Polynomial, RTZStretch3, HopSubstrate).
// Built schemes decompose into per-node state: Deploy
// reassembles a scheme from it, and MarshalScheme /
// UnmarshalScheme snapshot it through the versioned binary wire format
// (see DESIGN.md "Wire format & deployment"). Deployments also serve
// from a sharded cluster — ServeCluster in process, cmd/rtserve as
// one-daemon-per-shard over TCP — with packets crossing shard
// boundaries as wire-encoded frames (DESIGN.md "Cluster serving").
package rtroute

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"rtroute/internal/blocks"
	"rtroute/internal/core"
	"rtroute/internal/cover"
	"rtroute/internal/eval"
	"rtroute/internal/graph"
	"rtroute/internal/lowerbound"
	"rtroute/internal/names"
	"rtroute/internal/sim"
	"rtroute/internal/traffic"
)

// Core aliases: the facade exposes the internal types directly so that
// values flow between the public API and the experiment harness without
// copying.
type (
	// Dist is an exact integer distance.
	Dist = graph.Dist
	// NodeID is a topological node index.
	NodeID = graph.NodeID
	// Graph is a directed weighted graph with fixed-port edge labels.
	Graph = graph.Graph
	// Oracle answers shortest-path distance queries; schemes are built
	// against this interface.
	Oracle = graph.DistanceOracle
	// LazyOracle is the distance oracle: single-source rows behind a
	// bounded LRU, so schemes can be built on graphs whose n×n distances
	// would not fit in memory.
	LazyOracle = graph.LazyOracle
	// Naming maps topological indices to TINN names and back.
	Naming = names.Permutation
	// Scheme is a built TINN roundtrip routing scheme.
	Scheme = core.Scheme
	// RoundtripTrace reports both legs of one routed roundtrip.
	RoundtripTrace = sim.RoundtripTrace
	// Header is a mutable packet header (scheme-specific; it crosses
	// shards inside a flight frame).
	Header = sim.Header
	// CoverVariant selects the sparse-cover construction.
	CoverVariant = cover.Variant
)

// Inf is the distance of unreachable pairs.
const Inf = graph.Inf

// Cover variants for the §4 scheme and the hop substrate.
const (
	CoverAwerbuchPeleg = cover.VariantAwerbuchPeleg
	CoverBallGrowing   = cover.VariantBallGrowing
)

// Graph generators (seeded, always strongly connected).
var (
	RandomSC    = graph.RandomSC
	RandomGNP   = graph.RandomGNP
	Ring        = graph.Ring
	Grid        = graph.Grid
	Bidirect    = graph.Bidirect
	ScaleFreeSC = graph.ScaleFreeSC
	LayeredSC   = graph.LayeredSC
	Complete    = graph.Complete
)

// Namings.
var (
	IdentityNaming = names.Identity
	RandomNaming   = names.Random
	ReversedNaming = names.Reversed
)

// NewNaming validates an explicit name permutation (names[v] is the TINN
// name of node v).
func NewNaming(nodeNames []int32) (*Naming, error) { return names.NewPermutation(nodeNames) }

// Directory realizes the §1.1.2 hashing reduction for self-chosen names:
// arbitrary byte-string names are hashed onto {0..n-1} with per-slot
// buckets carrying the colliding full names.
type Directory = names.Directory

// NewDirectory hashes the given unique self-chosen names into n slots.
func NewDirectory(fullNames []string, n int, rng *rand.Rand) (*Directory, error) {
	return names.NewDirectory(fullNames, n, rng)
}

// AllPairs returns g's distance oracle under the default row budget,
// every row computed up front on GOMAXPROCS workers while all 2n fit it.
func AllPairs(g *Graph) *LazyOracle { return graph.AllPairs(g) }

// NewLazyOracle creates a bounded lazy distance oracle over g holding at
// most cacheRows distance rows (<= 0 selects the default budget).
func NewLazyOracle(g *Graph, cacheRows int) *LazyOracle { return graph.NewLazyOracle(g, cacheRows) }

// ReadGraph parses a graph in the textual exchange format of
// (*Graph).WriteTo.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// StronglyConnected reports whether g is strongly connected.
func StronglyConnected(g *Graph) bool { return graph.StronglyConnected(g) }

// System bundles a network, its distance oracle and its naming, and
// builds routing schemes over them.
type System struct {
	Graph  *Graph
	Metric Oracle
	Naming *Naming

	// hier is the cover hierarchy ExStretch, Polynomial and
	// HopSubstrate share (see System.hierarchy). NewSystem sets it; a
	// System assembled by hand has none, and each of those builds makes
	// its own. A copy of the System shares it.
	hier *hierarchyCache
}

// MetricKind names a distance oracle. There is one.
//
// Deprecated: every System holds its rows in the LazyOracle.
type MetricKind string

// MetricLazy names the LazyOracle.
//
// Deprecated: it is the only oracle; leave SystemConfig.Metric unset.
const MetricLazy MetricKind = "lazy"

// SystemConfig tunes NewSystemWith.
type SystemConfig struct {
	// Metric must be "" or MetricLazy; NewSystemWith refuses any other
	// value.
	//
	// Deprecated: there is one distance oracle; leave it unset.
	Metric MetricKind
}

// NewSystem validates the network and attaches its distance oracle,
// AllPairs(g): every row is computed up front while all 2n fit the
// default budget, and on demand above it. The naming must cover exactly
// the graph's nodes; nil selects the identity naming.
func NewSystem(g *Graph, naming *Naming) (*System, error) {
	if g.N() < 2 {
		return nil, fmt.Errorf("rtroute: need at least 2 nodes, got %d", g.N())
	}
	if !graph.StronglyConnected(g) {
		return nil, fmt.Errorf("rtroute: graph is not strongly connected; roundtrip distances would be infinite")
	}
	if naming == nil {
		naming = names.Identity(g.N())
	}
	if naming.N() != g.N() {
		return nil, fmt.Errorf("rtroute: naming covers %d nodes, graph has %d", naming.N(), g.N())
	}
	return &System{Graph: g, Metric: graph.AllPairs(g), Naming: naming, hier: &hierarchyCache{}}, nil
}

// NewSystemWith is NewSystem after checking cfg.
//
// Deprecated: use NewSystem.
func NewSystemWith(g *Graph, naming *Naming, cfg SystemConfig) (*System, error) {
	if cfg.Metric != "" && cfg.Metric != MetricLazy {
		return nil, fmt.Errorf("rtroute: SystemConfig.Metric is %q, but there is one distance oracle (leave it unset)", cfg.Metric)
	}
	return NewSystem(g, naming)
}

// R returns the roundtrip distance between two NAMES.
func (s *System) R(srcName, dstName int32) Dist {
	return s.Metric.R(NodeID(s.Naming.Node(srcName)), NodeID(s.Naming.Node(dstName)))
}

// D returns the one-way distance between two NAMES.
func (s *System) D(srcName, dstName int32) Dist {
	return s.Metric.D(NodeID(s.Naming.Node(srcName)), NodeID(s.Naming.Node(dstName)))
}

// Stretch returns the roundtrip stretch of a measured trace for the
// pair. Unreachable pairs (roundtrip distance Inf, possible only on
// hand-assembled Systems — NewSystem rejects non-strongly-connected
// graphs) report +Inf explicitly rather than a finite ratio against the
// Inf sentinel.
func (s *System) Stretch(srcName, dstName int32, tr *RoundtripTrace) float64 {
	r := s.R(srcName, dstName)
	if r >= Inf {
		return math.Inf(1)
	}
	if r == 0 {
		return 1
	}
	return float64(tr.Weight()) / float64(r)
}

// BlockOptions configures the Lemma 1/4 dictionary assignment.
type BlockOptions = blocks.Config

// Experiment harness re-exports (see DESIGN.md's experiment index).
type (
	// Fig1Row is one measured row of the paper's comparison table.
	Fig1Row = eval.Row
	// Fig1Config parameterizes Fig-1 regeneration.
	Fig1Config = eval.Fig1Config
	// StretchStats aggregates measured stretch over a pair set.
	StretchStats = eval.StretchStats
	// LowerBoundReport is one pair's Theorem 15 reduction record.
	LowerBoundReport = lowerbound.PairReport
)

// Fig1 regenerates the paper's comparison table empirically.
func Fig1(cfg Fig1Config) ([]Fig1Row, error) { return eval.Fig1(cfg) }

// FormatFig1 renders Fig-1 rows as an aligned text table.
func FormatFig1(rows []Fig1Row) string { return eval.FormatRows(rows) }

// EncodedSpacePoint is one sample of the encoded-bytes space report.
type EncodedSpacePoint = eval.EncodedSpacePoint

// EncodedSpaceConfig tunes EncodedSpaceSweep.
type EncodedSpaceConfig = eval.EncodedSpaceConfig

// EncodedSpaceSweep measures per-node routing state in wire bytes across
// graph sizes — the empirical Theorem 6 space certification (E14).
func EncodedSpaceSweep(cfg EncodedSpaceConfig) ([]EncodedSpacePoint, error) {
	return eval.EncodedSpaceSweep(cfg)
}

// EncodedSpaceSlope fits the log-log growth exponent of a sweep.
func EncodedSpaceSlope(pts []EncodedSpacePoint) float64 { return eval.EncodedSpaceSlope(pts) }

// FormatEncodedSpace renders an encoded space sweep as text.
func FormatEncodedSpace(pts []EncodedSpacePoint) string { return eval.FormatEncodedSpace(pts) }

// SpaceSweep measures stretch-6 table sizes across graph sizes (E9).
func SpaceSweep(ns []int, seed int64) ([]eval.SpacePoint, error) { return eval.SpaceSweep(ns, seed) }

// FormatSpaceSweep renders a space sweep as text.
func FormatSpaceSweep(pts []eval.SpacePoint) string { return eval.FormatSpacePoints(pts) }

// MeasureScheme measures a scheme's roundtrip stretch over sampled pairs.
// It drives the pairs through the scheme's forwarding plane with one
// reused header (the traffic engine's allocation discipline); routes and
// statistics are identical to per-pair Roundtrip traces.
func MeasureScheme(sys *System, sch Scheme, pairLimit int, seed int64) (StretchStats, error) {
	rng := rand.New(rand.NewSource(seed))
	pairs := eval.Pairs(sys.Graph.N(), pairLimit, rng)
	return eval.MeasureFlights(sys.Metric, sys.Naming, sch, pairs)
}

// ProfileBucket is one distance quantile of a stretch profile.
type ProfileBucket = eval.ProfileBucket

// ProfileScheme buckets a scheme's measured stretch by roundtrip
// distance quantile — near vs. far destinations.
func ProfileScheme(sys *System, sch Scheme, pairLimit, buckets int, seed int64) ([]ProfileBucket, error) {
	rng := rand.New(rand.NewSource(seed))
	pairs := eval.Pairs(sys.Graph.N(), pairLimit, rng)
	return eval.ProfileByDistance(sys.Metric, sys.Naming, sch.Roundtrip, pairs, buckets)
}

// FormatProfile renders a stretch profile as text.
func FormatProfile(buckets []ProfileBucket) string { return eval.FormatProfile(buckets) }

// Traffic engine re-exports (experiment E12 / scaling study S3): compile
// a built scheme into a frozen concurrent forwarding plane and drive
// skewed workloads through it from sharded workers.
type (
	// ForwardingPlane is the compiled read-only forwarding contract
	// (sim.Plane) shared by the sequential tracer and the traffic
	// engine. Every built Scheme is a ForwardingPlane.
	ForwardingPlane = sim.Plane
	// TrafficConfig parameterizes one engine run.
	TrafficConfig = traffic.Config
	// TrafficResult aggregates one engine run's serving stats.
	TrafficResult = traffic.Result
	// TrafficWorkload selects and tunes the generated pair distribution.
	TrafficWorkload = traffic.Spec
	// WorkloadKind names a workload pair distribution.
	WorkloadKind = traffic.Kind
)

// Workload kinds for TrafficWorkload.Kind.
const (
	WorkloadUniform = traffic.Uniform
	WorkloadZipf    = traffic.Zipf
	WorkloadHotspot = traffic.Hotspot
	WorkloadRPC     = traffic.RPC
)

// ServeTraffic compiles the plane (sealing the graph index, certifying
// it with a probe roundtrip) and serves cfg.Packets roundtrips through
// it across cfg.Workers goroutines. When cfg.Oracle is nil, the system's
// own distance oracle supplies the stretch accounting.
func (s *System) ServeTraffic(plane ForwardingPlane, cfg TrafficConfig) (*TrafficResult, error) {
	pl, err := traffic.Compile(plane)
	if err != nil {
		return nil, err
	}
	if cfg.Oracle == nil {
		cfg.Oracle = s.Metric
	}
	return traffic.Run(pl, cfg)
}

// AnalyzeLowerBound runs the Theorem 15 reduction of a scheme over a
// bidirected graph (E8).
func AnalyzeLowerBound(sys *System, sch Scheme) ([]LowerBoundReport, error) {
	return lowerbound.Analyze(sys.Graph, sys.Metric, sch, func(v NodeID) int32 {
		return sys.Naming.Name(int32(v))
	})
}

// SummarizeLowerBound folds reduction reports into aggregates.
func SummarizeLowerBound(reports []LowerBoundReport) lowerbound.Summary {
	return lowerbound.Summarize(reports)
}

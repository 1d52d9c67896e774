package rtroute

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rtroute/internal/churn"
	"rtroute/internal/cluster"
	"rtroute/internal/core"
	"rtroute/internal/sim"
	"rtroute/internal/traffic"
	"rtroute/internal/wire"
)

// ChurnClusterConfig parameterizes one RunChurnCluster experiment:
// seeded churn absorbed by a serving shard fabric, with one online
// repair per batch behind the shards' epoch fences and bit-identity
// certification against a sequential reference replica after every
// event batch.
type ChurnClusterConfig struct {
	// Kind selects the maintained scheme (default StretchSix).
	Kind SchemeKind
	// Build is the scheme construction config; the fabric's replica and
	// the reference build from the same seed, so their planes start
	// bit-identical. The reference overrides BuildWorkers to 1.
	Build BuildConfig
	// Shards is the fabric width (default 8).
	Shards int
	// Workers is each shard's serving pool size (default 1).
	Workers int
	// Placement selects the node partition (default Contiguous).
	Placement PlacementPolicy
	// ChurnSeed seeds the event model (independent of Build.Seed).
	ChurnSeed int64
	// Batches is the number of churn->repair->certify rounds (default 4).
	Batches int
	// EventsPerBatch is the number of topology events per batch
	// (default 4).
	EventsPerBatch int
	// FirePackets is the number of roundtrips issued concurrently with
	// each batch's repair — the under-fire serving window (default 2000).
	FirePackets int64
	// StablePackets is the post-repair serving quota per batch, replayed
	// sequentially on the reference plane for exact-totals comparison
	// (default 2000).
	StablePackets int64
	// MaxWeight bounds weight-change draws (default 64).
	MaxWeight Dist
	// MinWeight, when > 0, floors weight-change draws.
	MinWeight Dist
	// InFlight caps concurrently live roundtrips (default 512).
	InFlight int
	// Workload selects the pair distribution (zero value = uniform).
	Workload TrafficWorkload
	// Certify additionally certifies the reference replica against a
	// from-scratch build after every batch, making the fabric's
	// comparison with the reference transitively a from-scratch
	// certification. Costs a full build per batch.
	Certify bool
	// Sink, when non-nil, attaches the telemetry plane; its shape must
	// be Shards x Workers with no injectors (SinkShape) or the run
	// refuses it. The driver registers churn_cluster_* gauges on it.
	Sink *TelemetrySink
	// wrapEndpoint, when non-nil, wraps each shard's transport endpoint
	// — the test hook the reordering-adversary certification uses to
	// shuffle deliveries, churn frames included.
	wrapEndpoint func(shard int, tr cluster.Transport) cluster.Transport
	// failRepair, when non-nil, is consulted before the fabric's repair
	// of each batch; an error it returns is that repair's outcome (the
	// failing-repair test's hook).
	failRepair func(seq uint64) error
}

// SinkShape returns the TelemetryConfig matching this run's probes: one
// row per shard — the churn fabric keeps one serving loop and one epoch
// fence per shard and does not regroup them — and no injector probes.
func (cfg ChurnClusterConfig) SinkShape() TelemetryConfig {
	cfg.fill()
	ids := make([]int, cfg.Shards)
	for i := range ids {
		ids[i] = i
	}
	return TelemetryConfig{Shards: ids, Workers: cfg.Workers}
}

func (cfg *ChurnClusterConfig) fill() {
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Batches <= 0 {
		cfg.Batches = 4
	}
	if cfg.EventsPerBatch <= 0 {
		cfg.EventsPerBatch = 4
	}
	if cfg.FirePackets <= 0 {
		cfg.FirePackets = 2000
	}
	if cfg.StablePackets <= 0 {
		cfg.StablePackets = 2000
	}
	if cfg.MaxWeight <= 0 {
		cfg.MaxWeight = 64
	}
	if cfg.InFlight <= 0 {
		cfg.InFlight = 512
	}
	if cfg.Build.K == 0 {
		cfg.Build.K = 2
	}
}

// ChurnClusterBatch accounts one churn->repair->certify round.
type ChurnClusterBatch struct {
	Batch         int     `json:"batch"`
	Events        int     `json:"events"`
	Dirty         int     `json:"dirty"`
	DirtyFrac     float64 `json:"dirty_frac"`
	FireIssued    int64   `json:"fire_issued"`
	FireServed    int64   `json:"fire_served"`
	FireDrops     int64   `json:"fire_drops"`
	FireMisroutes int64   `json:"fire_misroutes"`
	FireNs        int64   `json:"fire_ns"`
	// RepairNsMean/Max are the shards' fence holds: from asking for the
	// write fence to releasing it, the rendezvous and the one repair
	// inside. FenceWaitNsMax is the longest wait for the fence itself
	// (serving batches draining), part of the hold but not of the repair.
	RepairNsMean   int64 `json:"repair_ns_mean"`
	RepairNsMax    int64 `json:"repair_ns_max"`
	FenceWaitNsMax int64 `json:"fence_wait_ns_max"`
	// RefRepairNs is the reference replica's sequential repair on the
	// driver thread — inside the fire window, beside the fabric's.
	RefRepairNs  int64 `json:"ref_repair_ns"`
	CertifyNs    int64 `json:"certify_ns"`
	StableIssued int64 `json:"stable_issued"`
	StableNs     int64 `json:"stable_ns"`

	// Repair anatomy, from the reference replica's MaintainReport: what
	// the repair of this batch re-derived.
	RebuiltTables int  `json:"rebuilt_tables"`
	RebuiltTrees  int  `json:"rebuilt_trees"`
	PatchedLabels int  `json:"patched_labels"`
	FullRebuild   bool `json:"full_rebuild,omitempty"`
	// RefRepair and FabricRepair are both repairs' full reports, stage
	// walls and search counts included: the same work, sequential and on
	// every core.
	RefRepair    MaintainReport `json:"ref_repair"`
	FabricRepair MaintainReport `json:"fabric_repair"`
}

// ChurnClusterResult aggregates one RunChurnCluster experiment (E19).
type ChurnClusterResult struct {
	Kind      string              `json:"kind"`
	Nodes     int                 `json:"nodes"`
	Shards    int                 `json:"shards"`
	Workers   int                 `json:"workers"`
	Placement string              `json:"placement"`
	BatchRows []ChurnClusterBatch `json:"batches"`
	// Accounting identity: Issued == Served + Drops + Misroutes, i.e.
	// zero hung roundtrips. RunChurnCluster fails rather than return a
	// result violating it.
	Issued    int64 `json:"issued"`
	Served    int64 `json:"served"`
	Drops     int64 `json:"drops"`
	Misroutes int64 `json:"misroutes"`
	// Repairs counts the shards' fenced applications (Shards x Batches);
	// each batch's S applications share one repair of the fabric replica.
	Repairs      int64 `json:"repairs"`
	RepairNsMean int64 `json:"repair_ns_mean"`
	RepairNsMax  int64 `json:"repair_ns_max"`
	// FireRTPerSec is serving throughput while repairs run; StableRTPerSec
	// the post-repair baseline — the during/off-repair pair.
	FireRTPerSec   float64 `json:"fire_rt_per_sec"`
	StableRTPerSec float64 `json:"stable_rt_per_sec"`
	CrossShard     int64   `json:"cross_shard_frames"`
	Certified      bool    `json:"certified"`
	FromScratch    bool    `json:"from_scratch_certified"`
	ElapsedNs      int64   `json:"elapsed_ns"`

	// SuppressedFlaps / DamperReleases are the reference overlay's flap
	// damper totals: recoveries deferred, and deferred ones released.
	SuppressedFlaps int64 `json:"suppressed_flaps"`
	DamperReleases  int64 `json:"damper_releases"`
}

type ccPair struct{ src, dst int32 }

// ccRun is one RunChurnCluster in flight. Below the wire the process
// holds two copies of the world: ref, the certification oracle, repaired
// sequentially on the driver thread over the caller's graph, and fab,
// the fabric's one replica over a private clone, whose single Deployment
// every shard's view shares (see repair).
type ccRun struct {
	cfg    ChurnClusterConfig
	n      int
	ref    *Replica
	fab    *Replica
	model  *churn.Model
	place  *cluster.Placement
	nodeOf []NodeID // name -> node, churn-invariant (the paper's TINNs)
	shards []*cluster.Shard
	bus    *cluster.ChanBus
	window *cluster.Window
	wake   chan struct{}

	issued       int64 // driver-thread only
	rt           uint64
	served       atomic.Int64
	drops        atomic.Int64
	misroutes    atomic.Int64
	servedHops   atomic.Int64
	servedWeight atomic.Int64
	acks         atomic.Int64
	dirtyBits    atomic.Uint64 // Float64bits of the last batch's dirty fraction
	// stageNs is the fabric's last repair by stage, for the gauges.
	stageNs [len(repairStages)]atomic.Int64

	mu       sync.Mutex
	firstErr error
	closed   bool     // abort ran: no repair may start any more
	meet     *meeting // the rendezvous the next arriving shard joins
}

// repairStages names MaintainReport's stage walls, in pass order.
var repairStages = [...]string{"substrate", "orders", "assign", "tables", "patch"}

func stageWalls(rep *MaintainReport) [len(repairStages)]int64 {
	return [...]int64{rep.SubstrateNs, rep.OrdersNs, rep.AssignNs, rep.TablesNs, rep.PatchNs}
}

// meeting is one batch's rendezvous of the shards' Repair hooks: done is
// closed once err holds the outcome every arrival returns.
type meeting struct {
	arrived int
	done    chan struct{}
	err     error
}

// repair is every shard's Options.Repair hook. Each shard calls it under
// its own write fence; the S calls of one batch are one repair: the last
// shard to arrive — by then every shard holds its fence, so nothing reads
// the shared graph or tables — repairs the fabric replica for all, on
// every core, while the others wait holding theirs, so the serving read
// path shares no lock between shards. A repair that has started always
// finishes before any fence drops; abort fails the meeting still
// gathering, so a dead shard cannot strand its peers.
func (r *ccRun) repair(seq uint64, events []ChurnEvent) error {
	r.mu.Lock()
	m := r.meet
	m.arrived++
	last := m.arrived == r.cfg.Shards && !r.closed
	if last {
		r.meet = &meeting{done: make(chan struct{})}
	}
	r.mu.Unlock()
	if last {
		if r.cfg.failRepair != nil {
			m.err = r.cfg.failRepair(seq)
		}
		if m.err == nil {
			m.err = r.fab.Repair(seq, events)
		}
		for i, ns := range stageWalls(&r.fab.last) {
			r.stageNs[i].Store(ns)
		}
		close(m.done)
	}
	<-m.done
	return m.err
}

func (r *ccRun) wakeup() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// abort records err (the first one wins; nil records nothing), fails the
// repair rendezvous still gathering — no repair starts any more — and
// closes the fabric, which releases the driver and the serving loops.
func (r *ccRun) abort(err error) {
	r.mu.Lock()
	if r.firstErr == nil && err != nil {
		r.firstErr = err
	}
	if !r.closed {
		r.closed = true
		r.meet.err = errors.New("rtroute: fabric closed before every shard reached the repair rendezvous")
		close(r.meet.done)
	}
	r.mu.Unlock()
	r.bus.Close()
	r.wakeup()
}

func (r *ccRun) err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.firstErr
}

// RunChurnCluster drives seeded churn through a serving shard fabric.
// The fabric serves one replica of the scheme — one graph clone, one
// maintained plane, one Deployment behind all S shard views — and each
// event batch is broadcast as a churn frame: every shard receives,
// orders and acknowledges it and takes its own epoch fence, and the
// last to do so repairs the replica once, on every core, for all of
// them (see ccRun.repair) — concurrently with serving on the shards not
// yet fenced, so in-flight roundtrips complete on stale-but-live routes
// or fail typed, never hang. After every batch the run certifies the
// fabric's plane bit-identical, node for node, to a reference replica
// built from the same seed and repaired sequentially (BuildWorkers 1) on
// an independent graph and oracle — parallel ≡ sequential — and, with
// Certify, the reference to a from-scratch build; then it serves a
// stable window whose hop and weight totals must match a sequential
// replay on the reference plane exactly.
func RunChurnCluster(sys *System, cfg ChurnClusterConfig) (*ChurnClusterResult, error) {
	cfg.fill()
	if err := cfg.Sink.CheckShape(cfg.Shards, cfg.Workers, 0); err != nil {
		return nil, fmt.Errorf("rtroute: churn cluster: %w", err)
	}
	n := sys.Graph.N()

	// Reference replica: the certification oracle and sequential-replay
	// plane. It sees the same events and builds and repairs one worker
	// at a time.
	refCfg := cfg.Build
	refCfg.BuildWorkers = 1
	ref, err := NewReplica(sys, cfg.Kind, refCfg)
	if err != nil {
		return nil, err
	}
	// The fabric's replica: a clone of the graph, still pristine, under
	// its own oracle, built and repaired on cfg.Build's workers.
	fsys, err := NewSystemWith(sys.Graph.Clone(), sys.Naming, SystemConfig{Metric: MetricLazy})
	if err != nil {
		return nil, fmt.Errorf("rtroute: fabric replica: %w", err)
	}
	fab, err := NewReplica(fsys, cfg.Kind, cfg.Build)
	if err != nil {
		return nil, fmt.Errorf("rtroute: fabric replica: %w", err)
	}
	// Event times advance on a unit-rate Poisson clock (it paces the
	// flap damper, not the experiment) over the default event mix.
	model := churn.NewModel(ref.ov, cfg.ChurnSeed, 1, churn.DefaultMix, cfg.MaxWeight)
	if cfg.MinWeight > 0 {
		model.SetMinWeight(cfg.MinWeight)
	}
	refDep := core.NewDeployment(ref.m.Plane(), cfg.Kind)
	ref.Bind(refDep, nil)
	place, err := cluster.NewPlacement(refDep, cfg.Shards, cfg.Placement)
	if err != nil {
		return nil, err
	}

	r := &ccRun{
		cfg: cfg, n: n,
		ref: ref, fab: fab, model: model, place: place,
		bus:    cluster.NewChanBus(cfg.Shards, cfg.InFlight+cfg.Shards),
		window: cluster.NewWindow(cfg.InFlight),
		wake:   make(chan struct{}, 1),
		meet:   &meeting{done: make(chan struct{})},
	}
	// Snapshot the name->node map: topology-independent names never move
	// under churn, but reading it through refDep would race with the
	// driver rebinding the reference plane mid-fire.
	r.nodeOf = make([]NodeID, n)
	for name := int32(0); name < int32(n); name++ {
		r.nodeOf[name] = refDep.NodeOf(name)
	}

	// One Deployment over the fabric's plane; every shard serves its own
	// view of it and repairs through the shared rendezvous.
	fabDep := core.NewDeployment(fab.m.Plane(), cfg.Kind)
	fab.Bind(fabDep, nil)
	r.shards = make([]*cluster.Shard, cfg.Shards)
	for i := range r.shards {
		view, err := fabDep.ShardView(i, place.Owner)
		if err != nil {
			return nil, fmt.Errorf("rtroute: shard %d view: %w", i, err)
		}
		tr := cluster.Transport(r.bus.Endpoint(i))
		if cfg.wrapEndpoint != nil {
			tr = cfg.wrapEndpoint(i, tr)
		}
		r.shards[i] = cluster.NewShard(view, place, tr, cluster.Options{
			Workers: cfg.Workers, Strict: true,
			OnDone: func(f *wire.Frame) {
				r.servedHops.Add(int64(f.Out.Hops) + int64(f.Back.Hops))
				r.servedWeight.Add(int64(f.Out.Weight) + int64(f.Back.Weight))
				r.served.Add(1)
				r.window.Put(1)
				r.wakeup()
			},
			OnLost: func(f *wire.Frame, reason byte) {
				if reason == wire.DropMisroute {
					r.misroutes.Add(1)
				} else {
					r.drops.Add(1)
				}
				r.window.Put(1)
				r.wakeup()
			},
			Repair: r.repair,
			OnRepaired: func(seq uint64) {
				r.acks.Add(1)
				r.wakeup()
			},
			Sink: cfg.Sink, SinkShard: i,
		})
	}
	r.registerGauges()

	wl, err := traffic.NewWorkload(cfg.Workload, n, cfg.Build.Seed^cfg.ChurnSeed)
	if err != nil {
		return nil, err
	}
	gen := wl.Generator(0)

	var wg sync.WaitGroup
	for _, sh := range r.shards {
		wg.Add(1)
		go func(sh *cluster.Shard) {
			defer wg.Done()
			if err := sh.Serve(); err != nil {
				r.abort(err)
			}
		}(sh)
	}

	res := &ChurnClusterResult{
		Kind: cfg.Kind.String(), Nodes: n, Shards: cfg.Shards, Workers: cfg.Workers,
		Placement: string(place.Policy), FromScratch: cfg.Certify,
	}
	start := time.Now()
	runErr := r.drive(gen, res)
	r.abort(nil)
	wg.Wait()
	// A shard's own failure (a poisoned repair) is the cause; what the
	// driver saw of it (a closed fabric) is the symptom.
	if err := r.err(); err != nil {
		runErr = err
	}
	if runErr != nil {
		return nil, runErr
	}
	res.ElapsedNs = int64(time.Since(start))
	res.Issued = r.issued
	res.Served = r.served.Load()
	res.Drops = r.drops.Load()
	res.Misroutes = r.misroutes.Load()
	if res.Served+res.Drops+res.Misroutes != res.Issued {
		return nil, fmt.Errorf("rtroute: accounting identity broken: issued %d != served %d + drops %d + misroutes %d",
			res.Issued, res.Served, res.Drops, res.Misroutes)
	}
	var fireNs, stableNs, fireIssued, stableIssued int64
	for _, row := range res.BatchRows {
		fireNs += row.FireNs
		stableNs += row.StableNs
		fireIssued += row.FireIssued
		stableIssued += row.StableIssued
		if row.RepairNsMax > res.RepairNsMax {
			res.RepairNsMax = row.RepairNsMax
		}
	}
	if fireNs > 0 {
		res.FireRTPerSec = float64(fireIssued) / (float64(fireNs) / 1e9)
	}
	if stableNs > 0 {
		res.StableRTPerSec = float64(stableIssued) / (float64(stableNs) / 1e9)
	}
	var repairNanos int64
	for _, sh := range r.shards {
		_, _, reps, nanos := sh.ChurnStats()
		res.Repairs += reps
		repairNanos += nanos
		res.CrossShard += sh.Stats().FramesOut
	}
	if res.Repairs > 0 {
		res.RepairNsMean = repairNanos / res.Repairs
	}
	ovs := ref.ov.Stats()
	res.SuppressedFlaps, res.DamperReleases = ovs.SuppressedFlaps, ovs.DamperReleases
	res.Certified = true
	return res, nil
}

func (r *ccRun) registerGauges() {
	sink := r.cfg.Sink
	sink.RegisterGauge("churn_cluster_drops_total", func() float64 { return float64(r.drops.Load()) })
	sink.RegisterGauge("churn_cluster_misroutes_total", func() float64 { return float64(r.misroutes.Load()) })
	sink.RegisterGauge("churn_cluster_repairs_total", func() float64 { return float64(r.acks.Load()) })
	sink.RegisterGauge("churn_cluster_dirty_frac", func() float64 { return math.Float64frombits(r.dirtyBits.Load()) })
	perRepair := func(nanos func(*cluster.Shard) int64) func() float64 {
		return func() float64 {
			var count, total int64
			for _, sh := range r.shards {
				_, _, c, _ := sh.ChurnStats()
				count += c
				total += nanos(sh)
			}
			if count == 0 {
				return 0
			}
			return float64(total) / float64(count)
		}
	}
	sink.RegisterGauge("churn_cluster_repair_ns_mean", perRepair(func(sh *cluster.Shard) int64 { _, _, _, ns := sh.ChurnStats(); return ns }))
	sink.RegisterGauge("churn_cluster_fence_wait_ns_mean", perRepair((*cluster.Shard).FenceWaitNanos))
	for i, stage := range repairStages {
		sink.RegisterGauge(fmt.Sprintf("churn_cluster_repair_stage_ns{stage=%q}", stage), func() float64 { return float64(r.stageNs[i].Load()) })
	}
}

// drive runs the batch loop: draw events -> fire (serve while the
// fabric repairs) -> certify -> stable window with sequential-replay
// totals.
func (r *ccRun) drive(gen traffic.Generator, res *ChurnClusterResult) error {
	prevRepairs := make([]int64, r.cfg.Shards)
	prevNanos := make([]int64, r.cfg.Shards)
	prevWait := make([]int64, r.cfg.Shards)
	for b := 0; b < r.cfg.Batches; b++ {
		seq := uint64(b + 1)
		row := ChurnClusterBatch{Batch: b}

		// Draw the batch from the model, applying it to the reference
		// overlay; the same events ride the wire to every shard.
		events, dirty, err := r.model.NextBatch(r.cfg.EventsPerBatch)
		if err != nil {
			return fmt.Errorf("rtroute: batch %d: %w", b, err)
		}
		row.Events = len(events)
		row.Dirty = len(dirty)
		row.DirtyFrac = float64(len(dirty)) / float64(r.n)
		r.dirtyBits.Store(math.Float64bits(row.DirtyFrac))

		// Fire phase: inject a serving window concurrently with the churn
		// broadcast and the repairs it triggers. Pairs avoid endpoints the
		// events killed; everything else is fair game mid-repair.
		firePairs := r.drawPairs(gen, r.cfg.FirePackets)
		served0, drops0, miss0 := r.served.Load(), r.drops.Load(), r.misroutes.Load()
		ackTarget := int64((b + 1) * r.cfg.Shards)
		fire0 := time.Now()
		injected := make(chan error, 1)
		go func() { injected <- r.issue(firePairs) }()
		for i := 0; i < r.cfg.Shards; i++ {
			// Each shard gets its own buffer: the transport owns delivered
			// bytes (shards recycle them into their frame pools).
			if err := r.bus.Send(i, wire.AppendChurnFrame(nil, seq, events)); err != nil {
				<-injected
				return fmt.Errorf("rtroute: churn broadcast: %w", err)
			}
		}
		// The reference repairs on the driver thread while the fabric
		// serves under fire.
		ref0 := time.Now()
		if err := r.ref.rebuild(dirty); err != nil {
			<-injected
			return fmt.Errorf("rtroute: reference repair: %w", err)
		}
		row.RefRepairNs = int64(time.Since(ref0))
		row.RefRepair = r.ref.last
		row.RebuiltTables, row.RebuiltTrees = r.ref.last.RebuiltTables, r.ref.last.RebuiltTrees
		row.PatchedLabels, row.FullRebuild = r.ref.last.PatchedLabels, r.ref.last.FullRebuild
		if err := <-injected; err != nil {
			return err
		}
		r.issued += int64(len(firePairs))
		if err := r.waitAccounted(r.issued, ackTarget, fmt.Sprintf("batch %d fire", b)); err != nil {
			return err
		}
		row.FireNs = int64(time.Since(fire0))
		row.FireIssued = int64(len(firePairs))
		row.FireServed = r.served.Load() - served0
		row.FireDrops = r.drops.Load() - drops0
		row.FireMisroutes = r.misroutes.Load() - miss0
		var repairSum int64
		for i, sh := range r.shards {
			_, _, reps, nanos := sh.ChurnStats()
			wait := sh.FenceWaitNanos()
			if reps != prevRepairs[i]+1 {
				return fmt.Errorf("rtroute: batch %d: shard %d ran %d repairs, expected %d", b, i, reps, prevRepairs[i]+1)
			}
			repairSum += nanos - prevNanos[i]
			row.RepairNsMax = max(row.RepairNsMax, nanos-prevNanos[i])
			row.FenceWaitNsMax = max(row.FenceWaitNsMax, wait-prevWait[i])
			prevRepairs[i], prevNanos[i], prevWait[i] = reps, nanos, wait
		}
		row.RepairNsMean = repairSum / int64(r.cfg.Shards)
		row.FabricRepair = r.fab.last

		// Certification: the fabric's plane, repaired on every core, must
		// be bit-identical node for node to the reference replica's,
		// repaired on one — and the reference, with Certify, to a
		// from-scratch build on the mutated graph.
		cert0 := time.Now()
		if r.cfg.Certify {
			if err := r.ref.m.Certify(); err != nil {
				return fmt.Errorf("rtroute: batch %d: reference vs from-scratch: %w", b, err)
			}
		}
		if err := CertifyIdentical(r.fab.m.Plane(), r.ref.m.Plane()); err != nil {
			return fmt.Errorf("rtroute: batch %d: fabric replica vs reference: %w", b, err)
		}
		row.CertifyNs = int64(time.Since(cert0))

		// Stable phase: the repaired fabric serves a quota that must be
		// drop-free and total-identical to a sequential replay on the
		// reference plane.
		stablePairs := r.drawPairs(gen, r.cfg.StablePackets)
		hops0, weight0 := r.servedHops.Load(), r.servedWeight.Load()
		drops0, miss0 = r.drops.Load(), r.misroutes.Load()
		stable0 := time.Now()
		if err := r.issue(stablePairs); err != nil {
			return err
		}
		r.issued += int64(len(stablePairs))
		if err := r.waitAccounted(r.issued, ackTarget, fmt.Sprintf("batch %d stable", b)); err != nil {
			return err
		}
		row.StableNs = int64(time.Since(stable0))
		row.StableIssued = int64(len(stablePairs))
		if d, m := r.drops.Load()-drops0, r.misroutes.Load()-miss0; d != 0 || m != 0 {
			return fmt.Errorf("rtroute: batch %d: repaired cluster dropped %d and misrouted %d roundtrips", b, d, m)
		}
		var refHops, refWeight int64
		var hdr sim.Header
		for _, p := range stablePairs {
			out, back, h, err := sim.RoundtripFlightReusing(r.ref.m.Plane(), hdr, p.src, p.dst, 0)
			if err != nil {
				return fmt.Errorf("rtroute: batch %d: sequential replay %d->%d: %w", b, p.src, p.dst, err)
			}
			hdr = h
			refHops += int64(out.Hops + back.Hops)
			refWeight += int64(out.Weight) + int64(back.Weight)
		}
		if gotH, gotW := r.servedHops.Load()-hops0, r.servedWeight.Load()-weight0; gotH != refHops || gotW != refWeight {
			return fmt.Errorf("rtroute: batch %d: cluster served hops=%d weight=%d, sequential replay hops=%d weight=%d",
				b, gotH, gotW, refHops, refWeight)
		}
		res.BatchRows = append(res.BatchRows, row)
	}
	return nil
}

// drawPairs draws count pairs, resampling (bounded) endpoints the churn
// has taken down — a dead endpoint can never be served, which would
// break the accounting identity's usefulness as a hang detector.
func (r *ccRun) drawPairs(gen traffic.Generator, count int64) []ccPair {
	pairs := make([]ccPair, 0, count)
	for i := int64(0); i < count; i++ {
		src, dst := gen.Next()
		for tries := 0; tries < 64 && (r.ref.ov.NodeFailed(r.nodeOf[src]) || r.ref.ov.NodeFailed(r.nodeOf[dst])); tries++ {
			src, dst = gen.Next()
		}
		pairs = append(pairs, ccPair{src, dst})
	}
	return pairs
}

// issue injects the pairs through the window, grouped per owning shard
// into batched inject frames — the same discipline cluster.Run's
// injectors use.
func (r *ccRun) issue(pairs []ccPair) error {
	byOwner := make([][]wire.InjectEntry, r.cfg.Shards)
	idx := 0
	for idx < len(pairs) {
		want := len(pairs) - idx
		if want > 256 {
			want = 256
		}
		got := r.window.Take(want, r.bus.Done())
		if got == 0 {
			if err := r.err(); err != nil {
				return err
			}
			return fmt.Errorf("rtroute: cluster closed while injecting")
		}
		for k := 0; k < got; k++ {
			p := pairs[idx]
			idx++
			r.rt++
			owner := r.place.Shard(r.nodeOf[p.src])
			byOwner[owner] = append(byOwner[owner], wire.InjectEntry{Src: p.src, Dst: p.dst, Rt: r.rt})
		}
		for o := range byOwner {
			if len(byOwner[o]) == 0 {
				continue
			}
			buf := make([]byte, 0, 32+len(byOwner[o])*21)
			data := wire.AppendInjectBatch(buf, wire.HomeLocal, 0, byOwner[o])
			byOwner[o] = byOwner[o][:0]
			if err := r.bus.Send(o, data); err != nil {
				if aerr := r.err(); aerr != nil {
					return aerr
				}
				return fmt.Errorf("rtroute: inject: %w", err)
			}
		}
	}
	return nil
}

// waitAccounted blocks until every issued roundtrip is accounted —
// served, dropped, or misrouted; nothing hung — and every shard has
// acknowledged the batches broadcast so far.
func (r *ccRun) waitAccounted(issued, acks int64, what string) error {
	deadline := time.After(60 * time.Second)
	for {
		got := r.served.Load() + r.drops.Load() + r.misroutes.Load()
		if got > issued {
			return fmt.Errorf("rtroute: %s: over-accounted: %d completions for %d issued", what, got, issued)
		}
		if got == issued && r.acks.Load() >= acks {
			return nil
		}
		if err := r.err(); err != nil {
			return err
		}
		select {
		case <-r.wake:
		case <-time.After(50 * time.Millisecond):
		case <-deadline:
			return fmt.Errorf("rtroute: %s: hung roundtrips: issued %d, served %d, drops %d, misroutes %d, repair acks %d/%d",
				what, issued, r.served.Load(), r.drops.Load(), r.misroutes.Load(), r.acks.Load(), acks)
		}
	}
}

// Format renders the result as the E19 cluster-churn report.
func (r *ChurnClusterResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster churn: %s over n=%d, %d shards x %d workers, placement %s, elapsed %v\n",
		r.Kind, r.Nodes, r.Shards, r.Workers, r.Placement, time.Duration(r.ElapsedNs).Round(time.Millisecond))
	fmt.Fprintf(&b, "accounting: issued %d = served %d + drops %d + misroutes %d  (0 hung)\n",
		r.Issued, r.Served, r.Drops, r.Misroutes)
	fmt.Fprintf(&b, "throughput: %.0f rt/s under fire, %.0f rt/s stable  (%.1f%% of stable while repairing)\n",
		r.FireRTPerSec, r.StableRTPerSec, pct(r.FireRTPerSec, r.StableRTPerSec))
	fmt.Fprintf(&b, "repairs: %d (%d shards x %d batches)  latency mean %v  max %v  cross-shard frames %d\n",
		r.Repairs, r.Shards, len(r.BatchRows), time.Duration(r.RepairNsMean).Round(time.Microsecond),
		time.Duration(r.RepairNsMax).Round(time.Microsecond), r.CrossShard)
	var dirtySum, dirtyMax float64
	for _, row := range r.BatchRows {
		dirtySum += row.DirtyFrac
		dirtyMax = max(dirtyMax, row.DirtyFrac)
	}
	fmt.Fprintf(&b, "dirty/batch: mean %.1f%%, max %.1f%% of nodes; damping: %d recoveries suppressed, %d released\n",
		pct(dirtySum, float64(len(r.BatchRows))), 100*dirtyMax, r.SuppressedFlaps, r.DamperReleases)
	switch {
	case r.Certified && r.FromScratch:
		b.WriteString("certified: fabric replica bit-identical to the sequential reference, reference to from-scratch builds, after every batch\n")
	case r.Certified:
		b.WriteString("certified: fabric replica bit-identical to the sequential reference after every batch\n")
	}
	fmt.Fprintf(&b, "\n%-5s %6s %6s %7s %9s %9s %9s %11s %11s %11s %11s %6s %6s %6s %9s %9s\n",
		"batch", "events", "dirty", "dirty%", "fired", "drops", "misroutes", "repair-mean", "repair-max", "fence-wait", "ref-repair",
		"trees", "tables", "labels", "fire-ms", "stable-ms")
	for _, row := range r.BatchRows {
		tables := fmt.Sprint(row.RebuiltTables)
		if row.FullRebuild {
			tables = "full"
		}
		fmt.Fprintf(&b, "%-5d %6d %6d %7.2f %9d %9d %9d %11s %11s %11s %11s %6d %6s %6d %9.1f %9.1f\n",
			row.Batch, row.Events, row.Dirty, 100*row.DirtyFrac, row.FireIssued, row.FireDrops, row.FireMisroutes,
			time.Duration(row.RepairNsMean).Round(time.Microsecond), time.Duration(row.RepairNsMax).Round(time.Microsecond),
			time.Duration(row.FenceWaitNsMax).Round(time.Microsecond), time.Duration(row.RefRepairNs).Round(time.Microsecond),
			row.RebuiltTrees, tables, row.PatchedLabels,
			float64(row.FireNs)/1e6, float64(row.StableNs)/1e6)
	}
	return b.String()
}

// FormatStages renders each batch's repair by stage, the fabric's (on
// every core) beside the reference's (on one): milliseconds of wall per
// stage — orders is a share of substrate, summed over workers — then the
// shortest-path searches run against the re-solved destinations and
// rebuilt trees that are owed two each, and the certification's wall.
func (r *ChurnClusterResult) FormatStages() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-9s", "batch", "repairer")
	for _, stage := range repairStages {
		fmt.Fprintf(&b, " %9s", stage)
	}
	fmt.Fprintf(&b, " %6s %6s %6s %10s\n", "sssp", "dests", "trees", "certify-ms")
	for _, row := range r.BatchRows {
		for i, rep := range []*MaintainReport{&row.FabricRepair, &row.RefRepair} {
			fmt.Fprintf(&b, "%-5d %-9s", row.Batch, []string{"fabric", "reference"}[i])
			for _, ns := range stageWalls(rep) {
				fmt.Fprintf(&b, " %9.2f", float64(ns)/1e6)
			}
			fmt.Fprintf(&b, " %6d %6d %6d", rep.SSSPRuns, rep.RebuiltClusters, rep.RebuiltTrees)
			if i == 0 {
				fmt.Fprintf(&b, " %10.1f", float64(row.CertifyNs)/1e6)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * a / b
}

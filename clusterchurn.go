package rtroute

import (
	"errors"
	"fmt"
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
// repair per batch between the shards' serving batches and bit-identity
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
	// wrapEndpoint, when non-nil, wraps each shard's transport endpoint
	// — the test hook the reordering-adversary certification uses to
	// shuffle deliveries, churn frames included.
	wrapEndpoint func(shard int, tr cluster.Transport) cluster.Transport
	// failRepair, when non-nil, is consulted before the fabric's repair
	// of each batch; an error it returns is that repair's outcome (the
	// failing-repair test's hook).
	failRepair func(seq uint64) error
}

func (cfg *ChurnClusterConfig) fill() {
	if cfg.Shards <= 0 {
		cfg.Shards = 8
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
	Batch         int
	Events        int
	Dirty         int
	DirtyFrac     float64
	FireIssued    int64
	FireServed    int64
	FireDrops     int64
	FireMisroutes int64
	FireNs        int64
	// RepairNsMax is the longest of the shards' repair calls: the wait
	// at the rendezvous and the one repair inside.
	RepairNsMax  int64
	StableIssued int64
	StableNs     int64
	// RefRepair and FabricRepair are both repairs' full reports, stage
	// walls and search counts included: the same work, sequential on the
	// driver thread inside the fire window, and on every core.
	RefRepair    MaintainReport
	FabricRepair MaintainReport
}

// ChurnClusterResult aggregates one RunChurnCluster experiment (E19).
type ChurnClusterResult struct {
	BatchRows []ChurnClusterBatch
	// Accounting identity: Issued == Served + Drops + Misroutes, i.e.
	// zero hung roundtrips. RunChurnCluster fails rather than return a
	// result violating it.
	Issued    int64
	Served    int64
	Drops     int64
	Misroutes int64
	// Repairs counts the shards' applications (Shards x Batches);
	// each batch's S applications share one repair of the fabric replica.
	Repairs     int64
	RepairNsMax int64
	// FireRTPerSec is serving throughput while repairs run; StableRTPerSec
	// the post-repair baseline — the during/off-repair pair.
	FireRTPerSec   float64
	StableRTPerSec float64
	Certified      bool
	ElapsedNs      int64
}

type ccPair struct{ src, dst int32 }

// ccRun is one RunChurnCluster in flight: net, the in-process fabric
// cluster.Run also serves on, one shard per contiguous partition, and
// the churn driver around it. Below the wire the process holds two
// copies of the world: ref, the certification oracle, repaired
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
	net    *cluster.Fabric
	window *cluster.Window
	wake   chan struct{}

	issued       int64 // driver-thread only
	served       atomic.Int64
	drops        atomic.Int64
	misroutes    atomic.Int64
	servedHops   atomic.Int64
	servedWeight atomic.Int64
	acks         atomic.Int64

	mu     sync.Mutex
	closed bool     // stop ran: no repair may start any more
	meet   *meeting // the rendezvous the next arriving shard joins
}

// meeting is one batch's rendezvous of the shards' Repair hooks: done is
// closed once err holds the outcome every arrival returns.
type meeting struct {
	arrived int
	done    chan struct{}
	err     error
}

// repair is every shard's Options.Repair hook. A shard calls it on its
// serving goroutine between two batches, so while it waits here it
// serves nothing; the S calls of one batch are one repair: the last
// shard to arrive — by then no shard is serving, so nothing reads the
// shared graph or tables — repairs the fabric replica for all, on every
// core, while the others wait, so the serving path shares no lock
// between shards. A repair that has started always finishes before any
// shard serves again; stop fails the meeting still gathering, so a dead
// shard cannot strand its peers.
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

// stop fails the repair rendezvous still gathering — no repair starts
// any more, so no shard waits there for a peer that has stopped — then
// closes the fabric and joins its serving loops, returning the first
// shard error.
func (r *ccRun) stop() error {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		r.meet.err = errors.New("rtroute: fabric closed before every shard reached the repair rendezvous")
		close(r.meet.done)
	}
	r.mu.Unlock()
	r.net.Close()
	return r.net.Wait()
}

// RunChurnCluster drives seeded churn through a serving shard fabric.
// The fabric serves one replica of the scheme — one graph clone, one
// maintained plane, one Deployment behind all S shard views — and each
// event batch is broadcast as a churn frame: every shard receives,
// orders and acknowledges it and stops serving to apply it, and the
// last to do so repairs the replica once, on every core, for all of
// them (see ccRun.repair) — concurrently with serving on the shards not
// yet there, so in-flight roundtrips complete on stale-but-live routes
// or fail typed, never hang. After every batch the run certifies the
// fabric's plane bit-identical, node for node, to a reference replica
// built from the same seed and repaired sequentially (BuildWorkers 1) on
// an independent graph and oracle — parallel ≡ sequential — and, with
// Certify, the reference to a from-scratch build; then it serves a
// stable window whose hop and weight totals must match a sequential
// replay on the reference plane exactly.
func RunChurnCluster(sys *System, cfg ChurnClusterConfig) (*ChurnClusterResult, error) {
	cfg.fill()
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
	fsys, err := NewSystem(sys.Graph.Clone(), sys.Naming)
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
	place, err := cluster.NewPlacement(refDep, cfg.Shards, cluster.Contiguous)
	if err != nil {
		return nil, err
	}

	r := &ccRun{
		cfg: cfg, n: n,
		ref: ref, fab: fab, model: model, place: place,
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
	r.net, err = cluster.NewFabric(fabDep, place, r.window, cluster.Options{
		Strict: true,
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
	}, cfg.wrapEndpoint)
	if err != nil {
		return nil, err
	}

	wl, err := traffic.NewWorkload(cfg.Workload, n, cfg.Build.Seed^cfg.ChurnSeed)
	if err != nil {
		return nil, err
	}
	r.net.Start()
	res := &ChurnClusterResult{}
	start := time.Now()
	runErr := r.drive(wl.Generator(0), res)
	// A shard's own failure (a poisoned repair) is the cause; what the
	// driver saw of it (a closed fabric) is the symptom.
	if err := r.stop(); err != nil {
		runErr = err
	} else if runErr == nil {
		runErr = r.window.Settled()
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
	for _, sh := range r.net.Shards() {
		_, _, reps, _ := sh.ChurnStats()
		res.Repairs += reps
	}
	res.Certified = true
	return res, nil
}

// drive runs the batch loop: draw events -> fire (serve while the
// fabric repairs) -> certify -> stable window with sequential-replay
// totals.
func (r *ccRun) drive(gen traffic.Generator, res *ChurnClusterResult) error {
	prevRepairs := make([]int64, r.cfg.Shards)
	prevNanos := make([]int64, r.cfg.Shards)
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
			// bytes (shards give them to the fabric's frame pool).
			if err := r.net.Send(i, wire.AppendChurnFrame(nil, seq, events)); err != nil {
				<-injected
				return fmt.Errorf("rtroute: churn broadcast: %w", err)
			}
		}
		// The reference repairs on the driver thread while the fabric
		// serves under fire.
		if err := r.ref.rebuild(dirty); err != nil {
			<-injected
			return fmt.Errorf("rtroute: reference repair: %w", err)
		}
		row.RefRepair = r.ref.last
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
		for i, sh := range r.net.Shards() {
			_, _, reps, nanos := sh.ChurnStats()
			if reps != prevRepairs[i]+1 {
				return fmt.Errorf("rtroute: batch %d: shard %d ran %d repairs, expected %d", b, i, reps, prevRepairs[i]+1)
			}
			row.RepairNsMax = max(row.RepairNsMax, nanos-prevNanos[i])
			prevRepairs[i], prevNanos[i] = reps, nanos
		}
		row.FabricRepair = r.fab.last

		// Certification: the fabric's plane, repaired on every core, must
		// be bit-identical node for node to the reference replica's,
		// repaired on one — and the reference, with Certify, to a
		// from-scratch build on the mutated graph.
		if r.cfg.Certify {
			if err := r.ref.m.Certify(); err != nil {
				return fmt.Errorf("rtroute: batch %d: reference vs from-scratch: %w", b, err)
			}
		}
		if err := CertifyIdentical(r.fab.m.Plane(), r.ref.m.Plane()); err != nil {
			return fmt.Errorf("rtroute: batch %d: fabric replica vs reference: %w", b, err)
		}

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
// into inject batches.
func (r *ccRun) issue(pairs []ccPair) error {
	byOwner := make([][]wire.InjectEntry, r.cfg.Shards)
	for idx := 0; idx < len(pairs); {
		got := r.window.Take(min(len(pairs)-idx, 256), r.net.Done())
		if got == 0 {
			return r.closedErr("injecting")
		}
		for _, p := range pairs[idx : idx+got] {
			owner := r.place.Shard(r.nodeOf[p.src])
			byOwner[owner] = append(byOwner[owner], wire.InjectEntry{Src: p.src, Dst: p.dst})
		}
		idx += got
		if _, err := r.net.Inject(byOwner); err != nil {
			return r.closedErr("injecting")
		}
	}
	return nil
}

// closedErr is the error for a fabric found closed while the driver was
// doing what: the shard failure that closed it, when there is one.
func (r *ccRun) closedErr(what string) error {
	if err := r.net.Err(); err != nil {
		return err
	}
	return fmt.Errorf("rtroute: fabric closed while %s", what)
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
		select {
		case <-r.wake:
		case <-r.net.Done():
			return r.closedErr(what)
		case <-deadline:
			return fmt.Errorf("rtroute: %s: hung roundtrips: issued %d, served %d, drops %d, misroutes %d, repair acks %d/%d",
				what, issued, r.served.Load(), r.drops.Load(), r.misroutes.Load(), r.acks.Load(), acks)
		}
	}
}

// Package cluster is the networked shard-serving layer: it partitions a
// Deployment's per-node tables across S shards and forwards packets
// *between* shards as wire-encoded frames over a pluggable Transport —
// the step from "per-node state suffices in one process" (PR 4's
// deployment) to "tables live on different machines", which is the
// regime the paper's topology-independent names and sublinear tables
// are for.
//
// A shard owns a subset of nodes (Placement: contiguous, hashed, or
// aligned to the scheme's own stretch-3 clusters) and forwards packets
// hop by hop with only its nodes' local state (core.ShardView). When a
// packet's next node belongs to another shard, the live header and the
// roundtrip's routing preamble are encoded as a fixed-layout flight
// frame (wire.AppendFlightFrame, or a repatch of the received bytes)
// and shipped to the owner, who resumes the leg exactly where it
// stopped — sim.SegmentRunner makes the chain of per-shard segments
// hop-for-hop identical to one single-process fly loop, which is what
// the route-identity tests certify against sim.Run.
//
// Two transports share the protocol: ChanBus (bounded in-process
// mailboxes — deterministic tests and benchmarks) and TCPTransport
// (length-prefixed frames over sockets — one rtserve daemon per shard,
// rtroute -connect as client). Run is the in-process engine with
// traffic-engine-shaped stats — its shards are fabric workers, one per
// core, each serving a run of the requested placement's partitions;
// Shard.Serve is the daemon loop.
package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rtroute/internal/core"
	"rtroute/internal/eval"
	"rtroute/internal/graph"
	"rtroute/internal/sim"
	"rtroute/internal/telemetry"
	"rtroute/internal/traffic"
	"rtroute/internal/wire"
)

// Config parameterizes one in-process cluster run.
type Config struct {
	// Shards is the number of placement partitions S (default 8) — a
	// placement granularity, not a goroutine count: Run serves them with
	// W = clamp(GOMAXPROCS, 2, S) fabric workers, each owning the
	// contiguous run of partitions p with p*W/S equal to its index, so a
	// hop between co-resident partitions never leaves its worker.
	Shards int
	// Workers must be 0 or 1: each fabric worker is one shard serving on
	// one goroutine. Run refuses a larger value.
	//
	// Deprecated: a shard has no worker pool; leave it unset.
	Workers int
	// Placement selects the node partition (default Contiguous).
	Placement Policy
	// Packets is the total number of roundtrips to serve; required > 0.
	Packets int64
	// Workload selects the pair distribution (zero value = uniform).
	Workload traffic.Spec
	// Seed makes the workload reproducible: same (Seed, Injectors,
	// Workload, Packets) injects the identical pair multiset.
	Seed int64
	// Oracle, when non-nil, enables stretch accounting over the sampled
	// packets (consulted only in the post-run merge, never on the hot
	// path).
	Oracle graph.DistanceOracle
	// SampleEvery marks every k-th packet of each injector stream for
	// stretch accounting (0 or 1 = every packet).
	SampleEvery int
	// Injectors is the number of deterministic injection streams
	// (default = Shards). Part of the pair-multiset contract.
	Injectors int
	// InFlight caps concurrently live roundtrips (default 512). With
	// every live roundtrip occupying at most one queued frame, mailbox
	// capacity = InFlight makes the bus deadlock-free by counting.
	InFlight int
	// Batch bounds one mailbox dequeue (default 64).
	Batch int
	// Sink, when non-nil, attaches the telemetry plane: one probe on
	// every shard and injector, sampled stage timing, heat sketches and
	// (when the sink's TraceEvery is set) the flight recorder — in which
	// case injects are stamped with roundtrip tags. The sink must have one probe per serving goroutine (one per
	// fabric worker, plus Injectors) or Run refuses it; SinkShape builds
	// a matching one.
	Sink *telemetry.Sink
	// fabricWorkers, when > 0, stands in for GOMAXPROCS in the W rule —
	// the test hook that forces a grouping whatever the host's core count.
	fabricWorkers int
	// wrapEndpoint, when non-nil, wraps each shard's transport endpoint
	// — the test hook the reordering-adversary certification uses to
	// shuffle deliveries without a second transport implementation.
	wrapEndpoint func(shard int, tr Transport) Transport
}

// shape resolves the defaults Run and SinkShape share: the requested
// partitions S, the fabric workers W = clamp(GOMAXPROCS, 2, S) serving
// them (one per core, so a frame exists only where a hop leaves a core;
// the floor of two keeps the crossing path live on a one-core host, and
// W is 1 only when S is), and injector streams — which default to S,
// not W, so the pair multiset does not depend on the host.
func (cfg Config) shape() (shards, fabric, injectors int) {
	if shards = cfg.Shards; shards <= 0 {
		shards = 8
	}
	if fabric = cfg.fabricWorkers; fabric <= 0 {
		fabric = max(runtime.GOMAXPROCS(0), 2)
	}
	if injectors = cfg.Injectors; injectors <= 0 {
		injectors = shards
	}
	return shards, min(fabric, shards), injectors
}

// Result aggregates one cluster run, shaped like traffic.Result plus
// the cross-shard accounting.
type Result struct {
	// Shards is the requested partition count S; FabricWorkers is the W
	// that served them. Only CrossShard, PerShard and the timings depend
	// on W (and so on the host's core count): routes, and every
	// distribution built from them, are the placement-blind tracer's.
	Shards        int
	FabricWorkers int
	Placement     Policy
	Packets       int64
	Hops          int64
	Weight        int64
	// CrossShard counts flight frames the fabric shipped — hops whose
	// tail and head live on different fabric workers.
	CrossShard int64
	Elapsed    time.Duration
	HopHist    eval.Hist // per-roundtrip hop counts
	HdrHist    eval.Hist // per-roundtrip peak header words
	Stretch    eval.Quantiles
	Sampled    int
	// PerShard has one row per fabric worker.
	PerShard []ShardStats
	// CrossEdgeFraction is the static fraction of graph edges crossing
	// partitions under the requested S-way placement: the placement's
	// quality, independent of how many workers served it.
	CrossEdgeFraction float64
	// InFlight is the run's window size (resolved default included).
	InFlight int
	// WindowOccupancy is the mean number of in-flight roundtrips
	// sampled at completion times — how full the pipeline actually ran.
	WindowOccupancy float64
	// TrackedAllocs counts allocation events at the engine's known
	// allocation sites — the shards' and injectors' frame-pool misses
	// among them — summed from the per-probe telemetry counters. Unlike
	// the whole-process ReadMemStats delta this replaced, it is
	// attributable per shard and immune to concurrent test goroutines;
	// the build-tag alloc gate keeps a process-wide measurement as the
	// backstop.
	TrackedAllocs int64
}

// PacketsPerSec returns the serving rate.
func (r *Result) PacketsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Packets) / r.Elapsed.Seconds()
}

// CrossingsPerRT returns the mean frames shipped per roundtrip.
func (r *Result) CrossingsPerRT() float64 {
	if r.Packets == 0 {
		return 0
	}
	return float64(r.CrossShard) / float64(r.Packets)
}

// AllocsPerRT returns the mean tracked allocation events per roundtrip
// over the serving phase.
func (r *Result) AllocsPerRT() float64 {
	if r.Packets == 0 {
		return 0
	}
	return float64(r.TrackedAllocs) / float64(r.Packets)
}

// SinkShape returns a telemetry.Config matching this run config's
// probe shape — one row per fabric worker — resolving the same defaults
// Run does on this host. Callers set the sampling knobs (SampleEvery,
// TraceEvery, HeatK...) and pass telemetry.New of it as cfg.Sink.
func (cfg Config) SinkShape() telemetry.Config {
	_, fabric, injectors := cfg.shape()
	ids := make([]int, fabric)
	for i := range ids {
		ids[i] = i
	}
	return telemetry.Config{Shards: ids, Injectors: injectors}
}

// Run serves cfg.Packets roundtrips through an in-process cluster: the
// S placement partitions folded onto W fabric workers over a channel
// bus, each worker one shard pumping its own mailbox, plus deterministic
// injector streams throttled by the InFlight window. The pair multiset —
// and therefore every distribution in the Result — is a pure function
// of (Seed, Injectors, Workload, Packets); Elapsed, the rates and the
// frames shipped vary with the host.
func Run(dep *core.Deployment, cfg Config) (*Result, error) {
	if cfg.Packets <= 0 {
		return nil, fmt.Errorf("cluster: packets must be > 0, got %d", cfg.Packets)
	}
	if cfg.Workers > 1 {
		return nil, fmt.Errorf("cluster: Config.Workers is %d, but a shard serves on one goroutine (leave it unset)", cfg.Workers)
	}
	shards, fabric, injectors := cfg.shape()
	if err := cfg.Sink.CheckShape(fabric, injectors); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	inFlight := cfg.InFlight
	if inFlight <= 0 {
		inFlight = 512
	}
	stride := int64(cfg.SampleEvery)
	if stride < 1 {
		stride = 1
	}
	requested, err := NewPlacement(dep, shards, cfg.Placement)
	if err != nil {
		return nil, err
	}
	// From here on the run knows only the worker-level placement: the
	// shards, the bus and the injectors are the S = W code, unchanged.
	place := requested.coarsen(fabric)
	g := dep.Graph()
	g.Seal()
	// Compile-time probe: a misconfigured plane fails here, not at
	// packet 731,204 (names 0 and 1 always exist).
	if _, _, err := sim.RoundtripFlight(dep, 0, 1, 0); err != nil {
		return nil, fmt.Errorf("cluster: probe roundtrip: %w", err)
	}
	wl, err := traffic.NewWorkload(cfg.Workload, g.N(), cfg.Seed)
	if err != nil {
		return nil, err
	}

	remaining := cfg.Packets
	window := NewWindow(inFlight)
	cfg.Sink.RegisterGauge("window_size", func() float64 { return float64(window.Size()) })
	cfg.Sink.RegisterGauge("window_occupancy", window.Occupancy)
	var fab *Fabric
	fab, err = NewFabric(dep, place, window, Options{
		Batch: cfg.Batch, Strict: true,
		OnDone: func(*wire.Frame) {
			window.Put(1)
			if atomic.AddInt64(&remaining, -1) == 0 {
				fab.Close()
			}
		},
		Sink: cfg.Sink,
	}, cfg.wrapEndpoint)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	fab.Start()
	var wg sync.WaitGroup
	quotas := traffic.SplitQuota(cfg.Packets, injectors)
	sample := cfg.Oracle != nil
	// Roundtrip tags cost frame bytes, so injects are tagged only when
	// the flight recorder wants them; tag 0 means untraced everywhere.
	tagging := cfg.Sink.Tracing()
	injAllocs := make([]int64, injectors)
	// Injectors run windowed: take a burst of credits, generate that
	// many pairs, ship them grouped per owning shard as one inject-batch
	// message each — one window rendezvous and one mailbox send per
	// burst instead of per roundtrip. The burst scales with the window
	// (Take never over-claims: it hands out at most what is available).
	burst := inFlight / (2 * injectors)
	if burst < 64 {
		burst = 64
	}
	if burst > 256 {
		burst = 256
	}
	// A take that returns one or two credits — completions trickling
	// back on a busy host — would pay a mailbox message per owner for a
	// burst that small, so an injector tops a short take
	// up to half its burst before it generates. Capping the floor at the
	// injector's share of the window keeps the sum of held credits below
	// the window, so some roundtrip is always in flight to refill it.
	floor := burst / 2
	if share := inFlight / injectors; floor > share {
		floor = share
	}
	for i := 0; i < injectors; i++ {
		wg.Add(1)
		go func(i int, quota int64) {
			defer wg.Done()
			gen := wl.Generator(i)
			byOwner := make([][]wire.InjectEntry, fabric)
			// The injector's probe mirrors the shard discipline: one
			// BatchStart per burst (credit wait is its own — excluded —
			// stage), publish after every burst.
			ip := cfg.Sink.InjectorProbe(i)
			allocs := &injAllocs[i]
			var sent int64
			if ip != nil {
				defer func() { ip.Publish(telemetry.Counters{Injects: sent, Allocs: *allocs}) }()
			}
			for sent < quota {
				want := burst
				if rem := quota - sent; rem < int64(want) {
					want = int(rem)
				}
				t := ip.BatchStart(0)
				n := window.Take(want, fab.Done())
				for 0 < n && n < min(floor, want) {
					more := window.Take(want-n, fab.Done())
					if more == 0 {
						return // run aborted under us
					}
					n += more
				}
				t = ip.Lap(telemetry.StageCredit, t)
				if n == 0 {
					return // run aborted under us
				}
				for k := 0; k < n; k++ {
					src, dst := gen.Next()
					owner := place.Shard(dep.NodeOf(src))
					if len(byOwner[owner]) == cap(byOwner[owner]) {
						*allocs++
					}
					e := wire.InjectEntry{
						Src: src, Dst: dst,
						Sampled: sample && (sent+int64(k))%stride == 0,
					}
					if tagging {
						// Unique, never-zero tag: injector in the high bits,
						// the injector-local sequence (starting at 1) below.
						e.Rt = uint64(i)<<40 | uint64(sent+int64(k)+1)
					}
					byOwner[owner] = append(byOwner[owner], e)
				}
				sent += int64(n)
				t = ip.Lap(telemetry.StageInject, t)
				cuts, err := fab.Inject(byOwner)
				*allocs += int64(cuts)
				if err != nil {
					return // fabric closed: run aborted under us
				}
				ip.Lap(telemetry.StageSend, t)
				if ip != nil {
					ip.Publish(telemetry.Counters{Injects: sent, Allocs: *allocs})
				}
			}
		}(i, quotas[i])
	}
	wg.Wait()
	err = fab.Wait()
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	// Every roundtrip served once: its credit taken and put back once.
	if err := window.Settled(); err != nil {
		return nil, err
	}

	res := &Result{
		Shards: shards, FabricWorkers: fabric, Placement: place.Policy,
		Elapsed: elapsed, PerShard: make([]ShardStats, fabric),
		CrossEdgeFraction: requested.CrossEdgeFraction(g),
		InFlight:          inFlight,
		WindowOccupancy:   window.Occupancy(),
	}
	for _, a := range injAllocs {
		res.TrackedAllocs += a
	}
	var samples []traffic.Sample
	for i, sh := range fab.Shards() {
		st := sh.Stats()
		res.PerShard[i] = st
		res.Packets += st.Packets
		res.Hops += st.Hops
		res.Weight += st.Weight
		res.CrossShard += st.FramesOut
		res.TrackedAllocs += st.Allocs
		sh.hists(&res.HopHist, &res.HdrHist, &samples)
	}
	if cfg.Oracle != nil {
		res.Stretch, err = traffic.StretchQuantiles(cfg.Oracle, samples)
		if err != nil {
			return nil, err
		}
		res.Sampled = len(samples)
	}
	return res, nil
}

// Fabric is the in-process serving lifecycle Run and the churn driver
// share: one Shard per placement partition over a channel bus, each
// serving on its own goroutine, the first shard error closing the bus
// for all, and injects shipped per owning shard as inject batches.
type Fabric struct {
	shards []*Shard
	bus    *ChanBus
	wg     sync.WaitGroup
	mu     sync.Mutex
	err    error
}

// NewFabric assembles place's shards over dep with opts (SinkShard set
// per shard), each endpoint wrapped by wrap when non-nil — the delivery
// adversary's test hook. A mailbox holds the window plus one batch per
// shard: every live roundtrip occupies at most one queued frame (a
// batched inject of k roundtrips is one message), a churn broadcast one
// more per shard, so sends can never cycle-wait.
func NewFabric(dep *core.Deployment, place *Placement, window *Window, opts Options, wrap func(shard int, tr Transport) Transport) (*Fabric, error) {
	f := &Fabric{shards: make([]*Shard, place.Shards), bus: NewChanBus(place.Shards, window.Size()+place.Shards)}
	for i := range f.shards {
		view, err := dep.ShardView(i, place.Owner)
		if err != nil {
			return nil, err
		}
		tr := Transport(f.bus.Endpoint(i))
		if wrap != nil {
			tr = wrap(i, tr)
		}
		opts.SinkShard = i
		f.shards[i] = NewShard(view, place, tr, opts)
	}
	return f, nil
}

// Start serves every shard on its own goroutine.
func (f *Fabric) Start() {
	for _, sh := range f.shards {
		f.wg.Add(1)
		go func(sh *Shard) {
			defer f.wg.Done()
			if err := sh.Serve(); err != nil {
				f.mu.Lock()
				if f.err == nil {
					f.err = err
				}
				f.mu.Unlock()
				f.Close()
			}
		}(sh)
	}
}

// Close shuts the bus, stopping every shard and every Send, Inject or
// Take on Done.
func (f *Fabric) Close() { f.bus.Close() }

// Done is closed once the fabric is.
func (f *Fabric) Done() <-chan struct{} { return f.bus.Done() }

// Err returns the first shard error so far.
func (f *Fabric) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Wait joins the shards, which return once the fabric is closed, and
// returns the first shard error.
func (f *Fabric) Wait() error {
	f.wg.Wait()
	return f.Err()
}

// Shards returns the shards, indexed by partition.
func (f *Fabric) Shards() []*Shard { return f.shards }

// Send hands data to shard to's mailbox; the shard owns it from then on.
func (f *Fabric) Send(to int, data []byte) error { return f.bus.SendBatch(to, []InFrame{{Data: data}}) }

// Inject sends each owner's entries as one inject batch and empties the
// accumulations. Each batch and its buffer are drawn from the bus's pool,
// where the shard that processes them gives them back; cuts is how many
// the pool could not supply.
func (f *Fabric) Inject(byOwner [][]wire.InjectEntry) (cuts int, err error) {
	p := &f.bus.stock
	for o := range byOwner {
		if len(byOwner[o]) == 0 {
			continue
		}
		size := 32 + 21*len(byOwner[o])
		p.mu.Lock()
		buf, batch := pop(&p.bufs, size), pop(&p.slabs, 0)
		p.mu.Unlock()
		if buf == nil {
			cuts++
			buf = make([]byte, 0, frameCap(size))
		}
		if batch == nil {
			cuts++
			batch = make([]InFrame, 0, tcpBatch)
		}
		batch = append(batch, InFrame{Data: wire.AppendInjectBatch(buf, wire.HomeLocal, 0, byOwner[o])})
		byOwner[o] = byOwner[o][:0]
		if err := f.bus.SendBatch(o, batch); err != nil {
			return cuts, err
		}
	}
	return cuts, nil
}

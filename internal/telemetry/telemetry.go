// Package telemetry is the serving stack's observability plane: an
// allocation-free, sharded layer the cluster fabric, the churn driver
// and the daemons thread their counters, stage timings, heat sketches
// and hop traces through. The design contract, enforced by the cluster
// alloc gate and the repo benchmark's telemetry.sink_overhead row:
//
//   - Hot counters are not kept here at all. Shards keep their
//     existing private stats and hand the probe a *copy* at batch
//     boundaries (Publish), so the serving loop pays one short
//     mutex-guarded struct copy per ~64-frame batch and readers
//     (/metrics, Snapshot) always see a race-clean, self-consistent
//     point-in-time value that matches the engine's own accounting
//     field for field.
//   - Stage timing is sampled per mailbox batch (1-in-SampleEvery),
//     not per packet: a sampled batch chains monotonic-clock Laps
//     through decode, route, encode, complete and send, so every
//     nanosecond between batch start and flush end is attributed to
//     exactly one stage and the per-stage totals scale back up by the
//     exact batch count — the machine-produced replacement for the
//     DESIGN "Serving numbers" hand arithmetic.
//   - Tracing (the flight recorder) is gated per roundtrip tag and
//     costs one predicate test per frame when idle; see recorder.go.
//   - Everything lives behind a nil-check: a nil *Sink hands out nil
//     *Probes, and every Probe method is a nil-receiver no-op, so the
//     instrumented hot path is branch-per-call when telemetry is off.
package telemetry

import (
	"fmt"
	"sync"
	"time"

	"rtroute/internal/eval"
)

// Stage identifies one attributed slice of a worker's serving loop.
// The stages tile a sampled batch: chained Laps leave no unattributed
// gap between batch start and flush end, which is what lets the
// stage table's busy sum approximate measured wall ns/rt.
type Stage uint8

const (
	// StageDecode is frame + header decode of a received frame.
	StageDecode Stage = iota
	// StageRoute is segment forwarding (the per-hop loop) plus the
	// roundtrip protocol glue around it (header reset, leg flip).
	StageRoute
	// StageEncode is flight repatch / re-encode and done-frame encode.
	StageEncode
	// StageComplete is completion accounting: stats, histograms,
	// samples, the window credit Put.
	StageComplete
	// StageSend is transport rendezvous: SendBatch and ReplyBatch calls.
	StageSend
	// StageInject is injector-side work: pair generation and
	// inject-batch encode.
	StageInject
	// StageCredit is the injector's window.Take. It is a *wait* stage:
	// its span covers blocked time that overlaps other goroutines'
	// busy time, so the stage table reports it but excludes it from
	// the busy sum.
	StageCredit
	// NumStages sizes per-probe stage arrays.
	NumStages
)

var stageNames = [NumStages]string{
	"decode", "route", "encode", "complete", "send", "inject", "credit-wait",
}

// String returns the stage's table label.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Wait reports whether the stage measures blocked time rather than CPU
// work (excluded from the busy sum, see StageCredit).
func (s Stage) Wait() bool { return s == StageCredit }

// Config sizes a Sink.
type Config struct {
	// Shards lists the shard ids the sink serves, one probe row per
	// entry; the ids are display labels (a single-shard daemon passes
	// its own shard number). Required non-empty.
	Shards []int
	// Workers must be 0 or 1: each shard row has one probe, because a
	// shard serves on one goroutine. New panics on a larger value.
	//
	// Deprecated: a shard has no worker pool; leave it unset.
	Workers int
	// Injectors is the number of injector probes (0 = none).
	Injectors int
	// SampleEvery samples stage timing on every k-th mailbox batch
	// (default 16; < 0 disables timing entirely).
	SampleEvery int
	// TraceEvery arms the flight recorder for roundtrip tags rt with
	// rt % TraceEvery == 1 (1 = every tagged roundtrip, 0 = tracing
	// off). Untagged roundtrips (rt == 0) are never traced.
	TraceEvery int
	// RingSize is each probe's event ring capacity (default 4096,
	// ignored when TraceEvery == 0).
	RingSize int
	// HeatK is the per-probe top-K destination sketch size
	// (default 16; < 0 disables heat tracking).
	HeatK int
}

func (c *Config) fill() {
	if c.SampleEvery == 0 {
		c.SampleEvery = 16
	}
	if c.RingSize <= 0 {
		c.RingSize = 4096
	}
	if c.HeatK == 0 {
		c.HeatK = 16
	}
}

// Gauge is a named instantaneous reading registered on a Sink; the
// function must be safe to call concurrently with the serving loop
// (the Window and TCP link counters are atomics, for example).
type Gauge struct {
	Name string
	Fn   func() float64
}

// Sink owns the probes of one serving run. A nil *Sink is valid
// everywhere and turns the whole plane off.
type Sink struct {
	cfg     Config
	epoch   time.Time
	clockNs int64    // calibrated cost of one monotonic clock read
	shards  []*Probe // one per Config.Shards entry
	inject  []*Probe

	mu     sync.Mutex
	gauges []Gauge
}

// calibrateClock measures the cost of one monotonic clock read, so Lap
// can subtract its own instrument from every sampled lap — at a
// sampling stride of 16, fourteen-odd uncorrected ~50ns reads per
// roundtrip would show up as ~700 phantom ns/rt in the stage table.
// The minimum over several short rounds keeps a scheduler preemption
// during calibration from inflating the estimate for the sink's whole
// lifetime.
func calibrateClock(epoch time.Time) int64 {
	const reads = 512
	best := int64(1 << 62)
	for round := 0; round < 8; round++ {
		start := time.Now()
		for i := 0; i < reads; i++ {
			_ = time.Since(epoch)
		}
		if d := int64(time.Since(start)) / reads; d < best {
			best = d
		}
	}
	return best
}

// New creates a sink for the given shape. A config it cannot serve
// (no shard rows, or a worker pool) panics early rather than serving
// misindexed probes.
func New(cfg Config) *Sink {
	cfg.fill()
	if len(cfg.Shards) == 0 {
		panic("telemetry: Config.Shards must be non-empty")
	}
	if cfg.Workers > 1 {
		panic(fmt.Sprintf("telemetry: Config.Workers is %d, but a shard serves on one goroutine (one probe per row)", cfg.Workers))
	}
	s := &Sink{cfg: cfg, epoch: time.Now()}
	s.clockNs = calibrateClock(s.epoch)
	s.shards = make([]*Probe, len(cfg.Shards))
	for i := range s.shards {
		s.shards[i] = s.newProbe()
	}
	s.inject = make([]*Probe, cfg.Injectors)
	for i := range s.inject {
		s.inject[i] = s.newProbe()
	}
	return s
}

func (s *Sink) newProbe() *Probe {
	p := &Probe{sink: s}
	if s.cfg.SampleEvery > 0 {
		p.every = uint64(s.cfg.SampleEvery)
	}
	if s.cfg.TraceEvery > 0 {
		p.traceEvery = uint64(s.cfg.TraceEvery)
		p.ring.init(s.cfg.RingSize)
	}
	if s.cfg.HeatK > 0 {
		p.heat.init(s.cfg.HeatK)
	}
	return p
}

// CheckShape reports whether the sink has exactly one probe per serving
// goroutine of a run with the given shard rows and injectors. An
// out-of-shape index gets a nil probe — the off switch — so a run that
// attached a mismatched sink would leave goroutines unobserved and
// divide the stage table's coverage by the wrong count; engines call
// this first and refuse instead. A nil sink fits any run.
func (s *Sink) CheckShape(shards, injectors int) error {
	if s == nil || (len(s.shards) == shards && len(s.inject) == injectors) {
		return nil
	}
	return fmt.Errorf("telemetry sink shaped for %d shards + %d injectors attached to a run of %d + %d",
		len(s.shards), len(s.inject), shards, injectors)
}

// Probe returns the probe of one shard row (an index into
// Config.Shards). A nil sink, or an index outside the configured shape,
// returns nil — the off switch.
func (s *Sink) Probe(shard int) *Probe {
	if s == nil || shard < 0 || shard >= len(s.shards) {
		return nil
	}
	return s.shards[shard]
}

// InjectorProbe returns injector i's probe (nil when out of shape).
func (s *Sink) InjectorProbe(i int) *Probe {
	if s == nil || i < 0 || i >= len(s.inject) {
		return nil
	}
	return s.inject[i]
}

// Tracing reports whether the sink records hop traces — callers use it
// to decide whether stamping roundtrip tags is worth the bytes.
func (s *Sink) Tracing() bool { return s != nil && s.cfg.TraceEvery > 0 }

// SampleEvery returns the resolved batch sampling stride (0 = timing
// disabled).
func (s *Sink) SampleEvery() int {
	if s == nil || s.cfg.SampleEvery < 0 {
		return 0
	}
	return s.cfg.SampleEvery
}

// RegisterGauge attaches a named instantaneous reading to snapshots.
func (s *Sink) RegisterGauge(name string, fn func() float64) {
	if s == nil || fn == nil {
		return
	}
	s.mu.Lock()
	s.gauges = append(s.gauges, Gauge{Name: name, Fn: fn})
	s.mu.Unlock()
}

// UptimeNs returns nanoseconds since the sink was created.
func (s *Sink) UptimeNs() int64 {
	if s == nil {
		return 0
	}
	return int64(time.Since(s.epoch))
}

// Counters is the counter set a probe publishes. A cluster shard fills
// it straight from its ShardStats (so /metrics matches the
// end-of-run merge exactly); the injectors fill the fields that apply
// and leave the rest zero.
type Counters struct {
	Packets   int64 `json:"packets"`
	Hops      int64 `json:"hops"`
	Weight    int64 `json:"weight"`
	FramesIn  int64 `json:"frames_in"`
	FramesOut int64 `json:"frames_out"`
	Errors    int64 `json:"errors"`
	Injects   int64 `json:"injects"`
	// Allocs counts tracked allocation events at the goroutine's known
	// allocation sites (pool misses, injector batch buffers) — the
	// per-probe replacement for whole-process ReadMemStats deltas.
	Allocs int64 `json:"allocs"`
}

func (c *Counters) add(o Counters) {
	c.Packets += o.Packets
	c.Hops += o.Hops
	c.Weight += o.Weight
	c.FramesIn += o.FramesIn
	c.FramesOut += o.FramesOut
	c.Errors += o.Errors
	c.Injects += o.Injects
	c.Allocs += o.Allocs
}

func (c *Counters) sub(o Counters) {
	c.Packets -= o.Packets
	c.Hops -= o.Hops
	c.Weight -= o.Weight
	c.FramesIn -= o.FramesIn
	c.FramesOut -= o.FramesOut
	c.Errors -= o.Errors
	c.Injects -= o.Injects
	c.Allocs -= o.Allocs
}

// published is the reader-visible copy of a probe's state, guarded by
// Probe.mu and overwritten whole on each Publish.
type published struct {
	c          Counters
	batches    int64
	sampled    int64
	recvWaitNs int64
	clippedNs  int64
	stageNs    [NumStages]int64
	stageMax   [NumStages]int64
	stageHist  [NumStages]eval.Hist
	heat       []HeatEntry
}

// Probe is one serving goroutine's instrument (a shard's or an
// injector's). All recording methods are single-goroutine (the owner's); Publish hands readers a
// copy under the probe mutex. Every method is a nil-receiver no-op.
type Probe struct {
	sink       *Sink
	every      uint64 // batch sampling stride, 0 = timing off
	traceEvery uint64 // roundtrip-tag trace stride, 0 = tracing off

	// Hot state, owned by the probe's goroutine.
	batches    uint64
	sampled    int64
	recvWaitNs int64
	clippedNs  int64
	stageNs    [NumStages]int64
	stageMax   [NumStages]int64
	stageHist  [NumStages]eval.Hist
	heat       sketch
	ring       ring

	mu  sync.Mutex
	pub published
}

// Now returns the probe clock (ns since the sink epoch), 0 on nil.
func (p *Probe) Now() int64 {
	if p == nil {
		return 0
	}
	return int64(time.Since(p.sink.epoch))
}

// BatchStart opens one mailbox batch: it counts the batch, charges the
// Recv block (now - waitFrom, when waitFrom > 0) to recv-wait, and —
// on every SampleEvery-th batch — returns a non-zero t0 that arms the
// Lap chain for the whole batch. An unsampled batch (and a nil probe)
// returns 0, which every Lap passes through untouched.
func (p *Probe) BatchStart(waitFrom int64) int64 {
	if p == nil {
		return 0
	}
	n := p.batches
	p.batches = n + 1
	// Sampling phase every-1 (not 0): the worker's first batches carry
	// cold-start cost — pool warmup, first-touch page faults — that the
	// batch-count scaling would multiply by the whole stride.
	if waitFrom > 0 {
		now := p.Now()
		p.recvWaitNs += now - waitFrom
		if p.every != 0 && n%p.every == p.every-1 {
			p.sampled++
			return now
		}
		return 0
	}
	if p.every != 0 && n%p.every == p.every-1 {
		p.sampled++
		return p.Now()
	}
	return 0
}

// Lap clip parameters: a sampled lap is clipped to clipMult times the
// stage's running median once the stage has clipWarm laps of history,
// but never below clipFloorNs. A lap two orders of magnitude over the
// median of a sub-millisecond stage is the scheduler preempting the
// worker mid-lap on an oversubscribed host, not stage work — and the
// batch-count scaling would multiply each such lap by the whole
// sampling stride. The clipped excess is kept (ClippedNs in the
// snapshot), not silently dropped.
const (
	clipFloorNs = 4096
	clipMult    = 64
	clipWarm    = 32
)

// Lap attributes the time since t0 to stage s and returns the new
// chain point. A zero t0 (unsampled batch, nil probe) flows through
// for free, so instrumented code calls Lap unconditionally.
func (p *Probe) Lap(s Stage, t0 int64) int64 {
	if t0 == 0 || p == nil {
		return 0
	}
	now := int64(time.Since(p.sink.epoch))
	d := now - t0 - p.sink.clockNs
	if d < 0 {
		d = 0
	}
	if d > clipFloorNs && !s.Wait() && p.stageHist[s].N >= clipWarm {
		if lim := clipMult * p.stageHist[s].Quantile(0.5); d > lim && lim >= clipFloorNs {
			p.clippedNs += d - lim
			d = lim
		}
	}
	p.stageNs[s] += d
	if d > p.stageMax[s] {
		p.stageMax[s] = d
	}
	p.stageHist[s].Add(int(d))
	return now
}

// Heat records one completed roundtrip's destination in the top-K
// sketch.
func (p *Probe) Heat(dst int32) {
	if p == nil {
		return
	}
	p.heat.add(dst)
}

// Publish copies the caller's counters plus the probe's accumulated
// timing, heat and sampling state into the reader-visible snapshot.
// Call at batch boundaries and once on worker exit.
func (p *Probe) Publish(c Counters) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.pub.c = c
	p.pub.batches = int64(p.batches)
	p.pub.sampled = p.sampled
	p.pub.recvWaitNs = p.recvWaitNs
	p.pub.clippedNs = p.clippedNs
	p.pub.stageNs = p.stageNs
	p.pub.stageMax = p.stageMax
	p.pub.stageHist = p.stageHist
	p.pub.heat = p.heat.copyInto(p.pub.heat)
	p.mu.Unlock()
}

// read returns the last published state.
func (p *Probe) read() published {
	p.mu.Lock()
	out := p.pub
	out.heat = append([]HeatEntry(nil), p.pub.heat...)
	p.mu.Unlock()
	return out
}

package telemetry

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"rtroute/internal/eval"
)

// StageSnap is one stage's merged timing inside a snapshot. SampledNs
// is the raw clocked time inside sampled batches; EstNs scales it by
// each probe's exact batch count (batches / sampled batches) before
// merging, so it estimates the stage's true total across *all*
// batches — the quantity the stage table divides by packets.
type StageSnap struct {
	Stage     string `json:"stage"`
	Wait      bool   `json:"wait,omitempty"`
	SampledNs int64  `json:"sampled_ns"`
	EstNs     int64  `json:"est_ns"`
	MaxNs     int64  `json:"max_ns"`
	P50Ns     int64  `json:"p50_ns"`
}

// ShardSnap is one shard's merged probe state (or the merged injector
// pseudo-shard, Shard == -1).
type ShardSnap struct {
	Shard int `json:"shard"`
	Counters
	Batches        int64 `json:"batches"`
	SampledBatches int64 `json:"sampled_batches"`
	RecvWaitNs     int64 `json:"recv_wait_ns"`
	// ClippedNs is sampled lap time attributed to scheduler preemption
	// (laps far over the stage's running median) and excluded from the
	// stage totals; a large value means the stage table is fighting an
	// oversubscribed host.
	ClippedNs int64       `json:"clipped_ns,omitempty"`
	Stages    []StageSnap `json:"stages,omitempty"`
	Heat      []HeatEntry `json:"heat,omitempty"`
}

// GaugeValue is one registered gauge's reading at snapshot time.
type GaugeValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Snapshot is one race-clean point-in-time merge of every probe's
// published state: the diffable epoch the live plane serves. Two
// snapshots subtract (Sub) into the activity between them.
type Snapshot struct {
	UptimeNs     int64        `json:"uptime_ns"`
	SampleEvery  int          `json:"sample_every"`
	Shards       []ShardSnap  `json:"shards"`
	Injectors    *ShardSnap   `json:"injectors,omitempty"`
	Gauges       []GaugeValue `json:"gauges,omitempty"`
	Totals       Counters     `json:"totals"`
	TraceDropped int64        `json:"trace_dropped,omitempty"`
	// probes is the number of goroutines merged in (shards plus
	// injectors): the stage sums add up their CPU time.
	probes int
}

// mergeSnap folds published probe states into one ShardSnap.
func (s *Sink) mergeSnap(shard int, probes ...*Probe) ShardSnap {
	out := ShardSnap{Shard: shard}
	var stageNs, stageEst, stageMax [NumStages]int64
	var hists [NumStages]eval.Hist
	heatParts := make([][]HeatEntry, 0, len(probes))
	for _, p := range probes {
		pub := p.read()
		out.Counters.add(pub.c)
		out.Batches += pub.batches
		out.SampledBatches += pub.sampled
		out.RecvWaitNs += pub.recvWaitNs
		out.ClippedNs += pub.clippedNs
		for st := Stage(0); st < NumStages; st++ {
			stageNs[st] += pub.stageNs[st]
			if pub.sampled > 0 {
				scale := float64(pub.batches) / float64(pub.sampled)
				stageEst[st] += int64(float64(pub.stageNs[st]) * scale)
			}
			if pub.stageMax[st] > stageMax[st] {
				stageMax[st] = pub.stageMax[st]
			}
			hists[st].Merge(&pub.stageHist[st])
		}
		if len(pub.heat) > 0 {
			heatParts = append(heatParts, pub.heat)
		}
	}
	for st := Stage(0); st < NumStages; st++ {
		if stageNs[st] == 0 {
			continue
		}
		out.Stages = append(out.Stages, StageSnap{
			Stage: st.String(), Wait: st.Wait(),
			SampledNs: stageNs[st], EstNs: stageEst[st],
			MaxNs: stageMax[st], P50Ns: hists[st].Quantile(0.5),
		})
	}
	out.Heat = mergeHeat(s.cfg.HeatK, heatParts...)
	return out
}

// Snapshot merges every probe's last published state. Safe to call
// concurrently with a live run; what it sees is each probe's most
// recent batch-boundary publish.
func (s *Sink) Snapshot() *Snapshot {
	if s == nil {
		return nil
	}
	snap := &Snapshot{
		UptimeNs:     s.UptimeNs(),
		SampleEvery:  s.SampleEvery(),
		Shards:       make([]ShardSnap, len(s.shards)),
		TraceDropped: s.TraceDropped(),
	}
	for i, p := range s.shards {
		snap.Shards[i] = s.mergeSnap(s.cfg.Shards[i], p)
		snap.Totals.add(snap.Shards[i].Counters)
	}
	snap.probes = len(s.shards) + len(s.inject)
	if len(s.inject) > 0 {
		inj := s.mergeSnap(-1, s.inject...)
		snap.Injectors = &inj
		snap.Totals.Injects += inj.Counters.Injects
		snap.Totals.Allocs += inj.Counters.Allocs
	}
	s.mu.Lock()
	gauges := append([]Gauge(nil), s.gauges...)
	s.mu.Unlock()
	for _, g := range gauges {
		snap.Gauges = append(snap.Gauges, GaugeValue{Name: g.Name, Value: g.Fn()})
	}
	return snap
}

// StageRow is one line of the machine-produced cost decomposition.
type StageRow struct {
	Stage   string  `json:"stage"`
	Wait    bool    `json:"wait,omitempty"`
	NsPerRT float64 `json:"ns_per_rt"`
	EstNs   int64   `json:"est_ns"`
	MaxNs   int64   `json:"max_ns"`
	P50Ns   int64   `json:"p50_ns"`
}

// StageTable merges the snapshot's per-shard stage estimates into
// whole-run per-roundtrip rows: busy stages first (hottest first),
// then wait stages (recv-wait last). packets 0 falls back to the
// snapshot's own total.
func (s *Snapshot) StageTable(packets int64) []StageRow {
	if s == nil {
		return nil
	}
	if packets <= 0 {
		packets = s.Totals.Packets
	}
	if packets <= 0 {
		return nil
	}
	type agg struct {
		est, max, p50, sampled int64
		wait                   bool
	}
	merged := map[string]*agg{}
	fold := func(sh *ShardSnap) {
		for _, st := range sh.Stages {
			a := merged[st.Stage]
			if a == nil {
				a = &agg{wait: st.Wait}
				merged[st.Stage] = a
			}
			a.est += st.EstNs
			a.sampled += st.SampledNs
			if st.MaxNs > a.max {
				a.max = st.MaxNs
			}
			if st.P50Ns > a.p50 {
				a.p50 = st.P50Ns
			}
		}
	}
	for i := range s.Shards {
		fold(&s.Shards[i])
	}
	if s.Injectors != nil {
		fold(s.Injectors)
	}
	rows := make([]StageRow, 0, len(merged)+1)
	for name, a := range merged {
		rows = append(rows, StageRow{
			Stage: name, Wait: a.wait,
			NsPerRT: float64(a.est) / float64(packets),
			EstNs:   a.est, MaxNs: a.max, P50Ns: a.p50,
		})
	}
	var recvWait int64
	for i := range s.Shards {
		recvWait += s.Shards[i].RecvWaitNs
	}
	if s.Injectors != nil {
		recvWait += s.Injectors.RecvWaitNs
	}
	if recvWait > 0 {
		rows = append(rows, StageRow{
			Stage: "recv-wait", Wait: true,
			NsPerRT: float64(recvWait) / float64(packets), EstNs: recvWait,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Wait != rows[j].Wait {
			return !rows[i].Wait
		}
		return rows[i].NsPerRT > rows[j].NsPerRT
	})
	return rows
}

// BusySum returns the non-wait rows' total ns/rt — the stage sum the
// acceptance bound compares against measured wall ns/rt.
func BusySum(rows []StageRow) float64 {
	var sum float64
	for _, r := range rows {
		if !r.Wait {
			sum += r.NsPerRT
		}
	}
	return sum
}

// FormatStageTable renders the decomposition StageTable(packets), ""
// when no stage was timed. wallNsPerRT, when > 0, adds the coverage
// line. The busy sum is CPU time summed over the goroutines the snapshot
// merged, so it is set against the CPU time one roundtrip's wall time
// makes available to them — wall times min(GOMAXPROCS, goroutines) —
// not against wall time as if there were one core. Wait rows overlap
// other goroutines' busy time on a saturated host and are excluded.
func (s *Snapshot) FormatStageTable(packets int64, wallNsPerRT float64) string {
	rows := s.StageTable(packets)
	if len(rows) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %8s %10s %10s\n", "stage", "ns/rt", "share", "p50-ns", "max-ns")
	busy := BusySum(rows)
	for _, r := range rows {
		if r.Wait {
			continue
		}
		share := 0.0
		if busy > 0 {
			share = 100 * r.NsPerRT / busy
		}
		fmt.Fprintf(&b, "%-12s %10.0f %7.1f%% %10d %10d\n", r.Stage, r.NsPerRT, share, r.P50Ns, r.MaxNs)
	}
	fmt.Fprintf(&b, "%-12s %10.0f\n", "busy sum", busy)
	for _, r := range rows {
		if r.Wait {
			fmt.Fprintf(&b, "%-12s %10.0f   (wait: overlaps busy, excluded)\n", r.Stage, r.NsPerRT)
		}
	}
	if wallNsPerRT > 0 {
		cpus := max(1, min(runtime.GOMAXPROCS(0), s.probes))
		fmt.Fprintf(&b, "measured     %10.0f ns/rt wall x %d cpus  coverage %.1f%% of cpu time\n",
			wallNsPerRT, cpus, 100*busy/(wallNsPerRT*float64(cpus)))
	}
	return b.String()
}

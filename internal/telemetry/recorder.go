package telemetry

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// EvKind discriminates flight-recorder events: the life of one traced
// roundtrip as it is injected, crosses shards, hops, flips at the
// destination and completes.
type EvKind uint8

const (
	// EvInject marks a roundtrip starting at its source's shard.
	EvInject EvKind = iota
	// EvArrive marks a flight frame received and decoded by a shard.
	EvArrive
	// EvHop marks one forwarded hop (recorded via the sim hop hook).
	EvHop
	// EvFlip marks outbound delivery: the return leg begins.
	EvFlip
	// EvDepart marks a flight frame shipped to another shard (Arg is
	// the destination shard).
	EvDepart
	// EvComplete marks the roundtrip finishing at its source.
	EvComplete
)

var evNames = [...]string{"inject", "arrive", "hop", "flip", "depart", "complete"}

// String returns the event kind's name.
func (k EvKind) String() string {
	if int(k) < len(evNames) {
		return evNames[k]
	}
	return "unknown"
}

// MarshalJSON encodes the kind as its name.
func (k EvKind) MarshalJSON() ([]byte, error) { return strconv.AppendQuote(nil, k.String()), nil }

// UnmarshalJSON decodes a kind name.
func (k *EvKind) UnmarshalJSON(b []byte) error {
	s, err := strconv.Unquote(string(b))
	if err != nil {
		return err
	}
	for i, n := range evNames {
		if n == s {
			*k = EvKind(i)
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown event kind %q", s)
}

// Event is one flight-recorder entry. Shard identifies the recording
// probe; At is the node involved (or -1), Arg carries the
// kind-specific detail (destination shard for depart, -1 otherwise),
// Hops is the roundtrip's running hop count and Return marks the
// return leg.
type Event struct {
	Ns     int64  `json:"ns"`
	Rt     uint64 `json:"rt"`
	Kind   EvKind `json:"ev"`
	Shard  int32  `json:"shard"`
	At     int32  `json:"at"`
	Arg    int32  `json:"arg"`
	Hops   int32  `json:"hops"`
	Return bool   `json:"return,omitempty"`
}

// ring is a per-probe event buffer. The writer (the probe's goroutine)
// uses TryLock so the serving path never blocks on a concurrent dump:
// if a reader holds the lock, the event is dropped and counted instead
// — "lock-free" in the sense that matters, no waiting on the hot path.
type ring struct {
	mu      sync.Mutex
	buf     []Event
	n       uint64 // total recorded; buf[(n-1) % len] is the newest
	dropped atomic.Int64
}

func (r *ring) init(size int) {
	if size > 0 {
		r.buf = make([]Event, size)
	}
}

func (r *ring) record(ev Event) {
	if len(r.buf) == 0 {
		return
	}
	if !r.mu.TryLock() {
		r.dropped.Add(1)
		return
	}
	r.buf[r.n%uint64(len(r.buf))] = ev
	r.n++
	r.mu.Unlock()
}

// snapshot appends the ring's events, oldest first, filtered by rt
// (0 = all), to out.
func (r *ring) snapshot(out []Event, rt uint64) []Event {
	if len(r.buf) == 0 {
		return out
	}
	r.mu.Lock()
	size := uint64(len(r.buf))
	start := uint64(0)
	if r.n > size {
		start = r.n - size
	}
	for i := start; i < r.n; i++ {
		ev := r.buf[i%size]
		if rt == 0 || ev.Rt == rt {
			out = append(out, ev)
		}
	}
	r.mu.Unlock()
	return out
}

// Traced reports whether roundtrip tag rt is armed for recording:
// tagged (non-zero) and on the probe's trace stride. One predicate
// test per frame is the whole idle cost of the recorder.
func (p *Probe) Traced(rt uint64) bool {
	if p == nil || p.traceEvery == 0 || rt == 0 {
		return false
	}
	return p.traceEvery == 1 || rt%p.traceEvery == 1
}

// Record appends one event for an armed roundtrip. Callers gate on
// Traced first; Record itself re-checks nothing but nil.
func (p *Probe) Record(kind EvKind, rt uint64, shard int, at, arg, hops int32, ret bool) {
	if p == nil {
		return
	}
	p.ring.record(Event{
		Ns: p.Now(), Rt: rt, Kind: kind, Shard: int32(shard),
		At: at, Arg: arg, Hops: hops, Return: ret,
	})
}

// Events merges every probe's ring into one timeline, filtered by
// roundtrip tag (rt == 0 keeps everything), ordered by timestamp.
func (s *Sink) Events(rt uint64) []Event {
	if s == nil {
		return nil
	}
	var out []Event
	for _, p := range s.shards {
		out = p.ring.snapshot(out, rt)
	}
	for _, p := range s.inject {
		out = p.ring.snapshot(out, rt)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ns < out[j].Ns })
	return out
}

// TraceDropped returns the total events dropped ring-wide (a reader
// held a ring lock at record time, or a ring wrapped — wraps are not
// counted here, only contention drops).
func (s *Sink) TraceDropped() int64 {
	if s == nil {
		return 0
	}
	var n int64
	for _, p := range s.shards {
		n += p.ring.dropped.Load()
	}
	for _, p := range s.inject {
		n += p.ring.dropped.Load()
	}
	return n
}

// EventsJSON renders events as a JSON array.
func EventsJSON(events []Event) ([]byte, error) {
	return json.MarshalIndent(events, "", " ")
}

// ChromeTrace renders events in Chrome trace_event format (load in
// chrome://tracing or Perfetto): one instant event per record, pid =
// shard (one thread each, tid 0), timestamps in microseconds.
func ChromeTrace(events []Event) ([]byte, error) {
	type chromeEvent struct {
		Name  string         `json:"name"`
		Ph    string         `json:"ph"`
		Ts    float64        `json:"ts"`
		Pid   int32          `json:"pid"`
		Tid   int32          `json:"tid"`
		Scope string         `json:"s"`
		Args  map[string]any `json:"args"`
	}
	out := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: make([]chromeEvent, 0, len(events))}
	for _, ev := range events {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: fmt.Sprintf("rt%d %s", ev.Rt, ev.Kind),
			Ph:   "i", Ts: float64(ev.Ns) / 1e3,
			Pid: ev.Shard, Scope: "t",
			Args: map[string]any{
				"rt": ev.Rt, "at": ev.At, "arg": ev.Arg,
				"hops": ev.Hops, "return": ev.Return,
			},
		})
	}
	return json.Marshal(&out)
}

// FormatTimeline renders a merged event list as a human-readable
// single-roundtrip timeline (the rtroute -connect -trace output).
func FormatTimeline(events []Event) string {
	var b []byte
	var t0 int64
	for i, ev := range events {
		if i == 0 {
			t0 = ev.Ns
		}
		b = append(b, fmt.Sprintf("%10.1fµs  shard %d  %-8s rt=%d at=%d arg=%d hops=%d return=%v\n",
			float64(ev.Ns-t0)/1e3, ev.Shard, ev.Kind, ev.Rt, ev.At, ev.Arg, ev.Hops, ev.Return)...)
	}
	if len(b) == 0 {
		return "no recorded events\n"
	}
	return string(b)
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the program are a later issue). Times are ns
// since the tracer's epoch; Parent indexes the span that caused it
// (-1 = root).
type span struct {
	Name       string
	Start, End int64
	Parent     int
	Rep        int
}

// tracer keeps spans in memory and writes them once at exit. A nil
// tracer is valid and free: end-to-end metrics are always taken with
// it nil. It is driven from the benchmark's main goroutine only, so the
// open-span stack gives each span its parent.
type tracer struct {
	epoch    time.Time
	workload string
	rep      int
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Rep: t.rep})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id (and anything left open inside it).
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	for len(t.open) > 0 {
		top := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		if top == id {
			break
		}
	}
}

// selfTimes returns, per span, its duration minus the part of its
// interval that child spans cover. Children may overlap one another (a
// layer fanned out to goroutines); the covered part is the union of
// their intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered int64
		edge := s.Start // everything before edge is already counted
		for _, c := range iv {
			lo, hi := max(c[0], edge), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time and counts calls per span name.
func selfByName(spans []span) (names []string, selfNs map[string]int64, calls map[string]int) {
	selfNs, calls = make(map[string]int64), make(map[string]int)
	for i, d := range selfTimes(spans) {
		if _, seen := calls[spans[i].Name]; !seen {
			names = append(names, spans[i].Name)
		}
		selfNs[spans[i].Name] += d
		calls[spans[i].Name]++
	}
	return names, selfNs, calls
}

// chromeEvent is one complete ("X") event of the Chrome trace format
// (chrome://tracing, Perfetto): timestamps and durations in µs.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write dumps the spans as Chrome-trace JSON.
func (t *tracer) write(path string) error {
	events := make([]chromeEvent, len(t.spans))
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.Name, Cat: t.workload, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": i, "parent": s.Parent, "rep": s.Rep, "self_us": float64(self[i]) / 1e3},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
)

// Handler serves the sink's export surface:
//
//	/metrics              expvar-style JSON snapshot (?format=prometheus
//	                      or an Accept: text/plain header selects the
//	                      Prometheus text format)
//	/trace                flight-recorder dump (?rt=N filters one
//	                      roundtrip tag; ?format=chrome emits Chrome
//	                      trace_event JSON for chrome://tracing)
//	/debug/pprof/*        the runtime profiles
//
// extra, when non-nil, holds static identity fields ("shard", "addr",
// scheme kind...) merged into the /metrics JSON root. It is built once
// and only read, so a request never touches what the daemon mutates.
func Handler(s *Sink, extra map[string]any) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := s.Snapshot()
		if snap == nil {
			http.Error(w, "telemetry disabled", http.StatusServiceUnavailable)
			return
		}
		format := r.URL.Query().Get("format")
		if format == "prometheus" || (format == "" && strings.Contains(r.Header.Get("Accept"), "text/plain")) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			w.Write(Prometheus(snap))
			return
		}
		root := map[string]any{"telemetry": snap}
		for k, v := range extra {
			root[k] = v
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(root)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		if s == nil {
			http.Error(w, "telemetry disabled", http.StatusServiceUnavailable)
			return
		}
		var rt uint64
		if v := r.URL.Query().Get("rt"); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				http.Error(w, "bad rt: "+err.Error(), http.StatusBadRequest)
				return
			}
			rt = n
		}
		events := s.Events(rt)
		var (
			body []byte
			err  error
		)
		if r.URL.Query().Get("format") == "chrome" {
			body, err = ChromeTrace(events)
		} else {
			body, err = EventsJSON(events)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "rtroute telemetry: /metrics /metrics?format=prometheus /trace?rt=N&format=chrome /debug/pprof/\n")
	})
	return mux
}

// Serve starts the export surface on addr (e.g. "127.0.0.1:8080",
// ":0" for an ephemeral port) and returns the server plus the bound
// address. The caller owns shutdown via srv.Close.
func Serve(addr string, s *Sink, extra map[string]any) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: Handler(s, extra)}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// Prometheus renders a snapshot in the Prometheus text exposition
// format (one counter family per Counters field, labeled by shard;
// stage estimates and heat as labeled families; gauges verbatim).
func Prometheus(snap *Snapshot) []byte {
	var b strings.Builder
	counter := func(name, help string, get func(*ShardSnap) int64) {
		fmt.Fprintf(&b, "# HELP rtroute_%s %s\n# TYPE rtroute_%s counter\n", name, help, name)
		emit := func(sh *ShardSnap, label string) {
			fmt.Fprintf(&b, "rtroute_%s{shard=%q} %d\n", name, label, get(sh))
		}
		for i := range snap.Shards {
			emit(&snap.Shards[i], strconv.Itoa(snap.Shards[i].Shard))
		}
		if snap.Injectors != nil {
			emit(snap.Injectors, "injectors")
		}
	}
	counter("packets_total", "roundtrips completed", func(s *ShardSnap) int64 { return s.Packets })
	counter("hops_total", "hops forwarded over completed roundtrips", func(s *ShardSnap) int64 { return s.Hops })
	counter("weight_total", "roundtrip weight served", func(s *ShardSnap) int64 { return s.Weight })
	counter("frames_in_total", "packet frames received from other shards", func(s *ShardSnap) int64 { return s.FramesIn })
	counter("frames_out_total", "packet frames shipped to other shards", func(s *ShardSnap) int64 { return s.FramesOut })
	counter("errors_total", "frames dropped or batches refused", func(s *ShardSnap) int64 { return s.Errors })
	counter("injects_total", "roundtrips injected", func(s *ShardSnap) int64 { return s.Injects })
	counter("tracked_allocs_total", "tracked allocation events", func(s *ShardSnap) int64 { return s.Allocs })
	counter("batches_total", "mailbox batches processed", func(s *ShardSnap) int64 { return s.Batches })
	counter("recv_wait_ns_total", "nanoseconds blocked in Recv", func(s *ShardSnap) int64 { return s.RecvWaitNs })

	fmt.Fprintf(&b, "# HELP rtroute_stage_est_ns_total estimated total nanoseconds per stage\n# TYPE rtroute_stage_est_ns_total counter\n")
	emitStages := func(sh *ShardSnap, label string) {
		for _, st := range sh.Stages {
			fmt.Fprintf(&b, "rtroute_stage_est_ns_total{shard=%q,stage=%q} %d\n", label, st.Stage, st.EstNs)
		}
	}
	for i := range snap.Shards {
		emitStages(&snap.Shards[i], strconv.Itoa(snap.Shards[i].Shard))
	}
	if snap.Injectors != nil {
		emitStages(snap.Injectors, "injectors")
	}

	fmt.Fprintf(&b, "# HELP rtroute_heat_count estimated completions per hot destination (space-saving top-K)\n# TYPE rtroute_heat_count gauge\n")
	for i := range snap.Shards {
		for _, e := range snap.Shards[i].Heat {
			fmt.Fprintf(&b, "rtroute_heat_count{shard=%q,dst=%q} %d\n",
				strconv.Itoa(snap.Shards[i].Shard), strconv.Itoa(int(e.Dst)), e.Count)
		}
	}

	gauges := append([]GaugeValue(nil), snap.Gauges...)
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].Name < gauges[j].Name })
	family := ""
	for _, g := range gauges {
		// A gauge may carry one label set, `name{k="v"}`: the name is
		// sanitized, the labels pass through, and a family (adjacent
		// after the sort) is typed once.
		base, labels, labeled := strings.Cut(g.Name, "{")
		name := strings.Map(func(r rune) rune {
			if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_' {
				return r
			}
			return '_'
		}, strings.ToLower(base))
		if name != family {
			fmt.Fprintf(&b, "# TYPE rtroute_%s gauge\n", name)
			family = name
		}
		if labeled {
			labels = "{" + labels
		}
		fmt.Fprintf(&b, "rtroute_%s%s %g\n", name, labels, g.Value)
	}
	fmt.Fprintf(&b, "# TYPE rtroute_uptime_seconds gauge\nrtroute_uptime_seconds %g\n", float64(snap.UptimeNs)/1e9)
	return []byte(b.String())
}

// Command benchmark is the repository's yardstick: seven workloads from
// scheme build through loopback-TCP roundtrips to churn repair, each
// reporting the same end-to-end metrics, plus a traced pass that times
// every layer beneath them and checks that the layer costs add up. It
// claims no gain; README.md says what each number means and which layer
// should move it.
//
// The driver's form (one workload, one run, result as the last line):
//
//	bash benchmark/run.sh --workload mono-zipf --seed 3 --seconds 10 --trace 0
//
// By hand, from the benchmark directory:
//
//	go run . [-seed N] [-runs K] [-out set.json]    # every workload, one child process each
//	go run . -workload tcp-s2-w1 -trace out.json     # per-layer pass + Chrome trace
//	go run . -compare a.json b.json                  # two result sets against the bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 8

func main() {
	var (
		name    = flag.String("workload", "", "run this workload only, in this process (default: every workload, one child process each)")
		seed    = flag.Int64("seed", 1, "workload seed: graphs, names, pairs and churn events derive from it")
		seconds = flag.Float64("seconds", defaultSeconds, "measured-phase budget per run")
		trace   = flag.String("trace", "0", "0 = end-to-end metrics; 1 = per-layer metrics; any other value = per-layer metrics plus a Chrome trace written to that path")
		runs    = flag.Int("runs", 1, "runs per workload, seeds seed..seed+runs-1 (all-workloads mode)")
		out     = flag.String("out", "", "write the result set as JSON to this file (all-workloads mode)")
		compare = flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	)
	flag.Parse()
	if err := realMain(*name, *seed, *seconds, *trace, *runs, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(name string, seed int64, seconds float64, trace string, runs int, out string, compare bool, args []string) error {
	switch {
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	case name != "":
		wl, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		rep, err := runOne(wl, seed, seconds, trace, os.Stdout)
		if err != nil {
			return err
		}
		if err := rep.print(os.Stdout); err != nil {
			return err
		}
		if !rep.Correct {
			return fmt.Errorf("%s: %d of %d operations failed their checks", name, rep.Failed, rep.Attempted)
		}
		return nil
	default:
		return runAll(seed, seconds, trace, runs, out)
	}
}

// host records where the numbers were taken.
type host struct {
	Nproc      int     `json:"nproc"`
	Gomaxprocs int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Load1      float64 `json:"load1"`
	Link       string  `json:"link"`
}

func thisHost() host {
	h := host{
		Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Load1: -1, Link: "loopback interface, not a real link",
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				h.Load1 = v
			}
		}
	}
	return h
}

// header prints the host line and its hygiene warnings: a noisy capture
// should be visible, not silently become a baseline.
func (h host) header(w io.Writer) {
	fmt.Fprintf(w, "host: nproc %d  GOMAXPROCS %d  %s  load1 %.2f  %s; closed-loop load, one generator per connection, at most nproc of them\n",
		h.Nproc, h.Gomaxprocs, h.Go, h.Load1, h.Link)
	if h.Gomaxprocs != h.Nproc {
		fmt.Fprintf(w, "WARNING: GOMAXPROCS %d != nproc %d; workloads are sized for one worker per core\n", h.Gomaxprocs, h.Nproc)
	}
	if h.Load1 > 0.5*float64(h.Nproc) {
		fmt.Fprintf(w, "WARNING: 1-minute load average %.2f exceeds half the %d cores; expect noisy timings\n", h.Load1, h.Nproc)
	}
}

// metricValue is one reported number. Reps is the per-rep list behind a
// median, Samples the pooled sample count behind a percentile.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Reps    []float64 `json:"reps,omitempty"`
	Samples int       `json:"samples,omitempty"`
}

// report is one run of one workload.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"` // what the driver reads: every end_to_end or every per_layer metric
	Detail    map[string]metricValue `json:"detail"`  // the workload-only rows
	// HostSpeed is the run's calibration factor (the median of its
	// readings; 1 = reference speed) that times and rates are scaled
	// by, and Raw their medians as the clock gave them.
	HostSpeed float64            `json:"host_speed,omitempty"`
	Raw       map[string]float64 `json:"raw,omitempty"`
	Host      host               `json:"host"`
}

// reportPrefix marks the full-report line the all-workloads parent
// reads from a child's output; the driver reads only the last line.
const reportPrefix = "report: "

// runOne measures one workload in this process.
func runOne(wl workload, seed int64, seconds float64, trace string, log io.Writer) (*report, error) {
	h := thisHost()
	h.header(log)
	fmt.Fprintf(log, "workload %s  seed %d  seconds %g  trace %s\n", wl.name, seed, seconds, trace)
	r := newRun(wl, seed, seconds, h.Nproc, log)
	rep := &report{Workload: wl.name, Seed: seed, Host: h, Metrics: map[string]metricValue{}, Detail: map[string]metricValue{}}
	if trace != "0" && trace != "" {
		rep.Traced = true
		r.tr = newTracer(wl.name)
		layers, err := tracedRun(r)
		if err != nil {
			return nil, err
		}
		for _, d := range perLayer {
			v, ok := layers[d.Name]
			if !ok {
				return nil, fmt.Errorf("%s: traced run did not measure %s", wl.name, d.Name)
			}
			rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
		if trace != "1" {
			if err := r.tr.write(trace); err != nil {
				return nil, err
			}
			fmt.Fprintf(log, "wrote %d spans to %s (Chrome trace; load in chrome://tracing or Perfetto)\n", len(r.tr.spans), trace)
		}
	} else {
		if err := wl.measure(r); err != nil && r.failed == 0 {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		r.set("peak_rss_mb", peakRSSMiB())
		failRatio := float64(r.failed+r.lost) / float64(max(r.attempted, 1))
		r.set("fail_ratio", failRatio)
		if failRatio > failRatioBound {
			r.fail(0, "fail_ratio %.6f exceeds %g", failRatio, failRatioBound)
		}
		rep.HostSpeed, rep.Raw = median(r.speeds), map[string]float64{}
		for _, d := range endToEnd {
			if len(r.vals[d.Name]) == 0 {
				return nil, fmt.Errorf("%s: run did not measure %s", wl.name, d.Name)
			}
			rep.Metrics[d.Name] = r.metric(d, rep)
		}
		for _, d := range workloadOnly {
			if d.reports(wl.name) && len(r.vals[d.Name]) > 0 {
				rep.Detail[d.Name] = r.metric(d, rep)
			}
		}
		r.warnSpreads(log)
		fmt.Fprintf(log, "host speed %.3f of reference (median of %d calibration readings); times and rates below are scaled by it, the clock's medians were:", rep.HostSpeed, len(r.speeds))
		for _, d := range bounded() {
			if raw, ok := rep.Raw[d.Name]; ok {
				fmt.Fprintf(log, "  %s %.6g", d.Name, raw)
			}
		}
		fmt.Fprintln(log)
	}
	rep.Attempted, rep.Failed, rep.Failures = max(r.attempted, 1), r.failed, r.failures
	rep.Correct = r.failed == 0
	return rep, nil
}

// metric is d's reported value: the median of its readings, scaled to
// the reference host where it is a time or a rate (the clock's own
// median then goes to rep.Raw).
func (r *run) metric(d metricDef, rep *report) metricValue {
	raw := r.value(d.Name)
	mv := metricValue{Value: scaled(d, raw, rep.HostSpeed), Unit: d.Unit, Samples: r.samples[d.Name]}
	if mv.Value != raw {
		rep.Raw[d.Name] = raw
	}
	if vs := r.vals[d.Name]; len(vs) > 1 {
		for _, v := range vs {
			mv.Reps = append(mv.Reps, scaled(d, v, rep.HostSpeed))
		}
	}
	return mv
}

// warnSpreads flags a metric whose reps spread (max/min - 1) beyond
// twice its bound, and prints the rep list.
func (r *run) warnSpreads(w io.Writer) {
	for _, d := range bounded() {
		if vs := r.vals[d.Name]; !r.perEvent[d.Name] && spreadMaxMin(vs) > 2*d.Bound {
			fmt.Fprintf(w, "WARNING: %s reps spread %.0f%% (max/min), over twice its %.0f%% bound: %.6g\n",
				d.Name, 100*spreadMaxMin(vs), 100*d.Bound, vs)
		}
	}
}

// print writes the human-readable table, the full-report line and, last,
// the driver's result line.
func (rep *report) print(w io.Writer) error {
	defs, what := endToEnd, "end-to-end"
	if rep.Traced {
		defs, what = perLayer, "per-layer"
	}
	fmt.Fprintf(w, "\n%s  seed %d  %s metrics\n", rep.Workload, rep.Seed, what)
	row := func(d metricDef, mv metricValue) {
		fmt.Fprintf(w, "  %-26s %14.6g %-6s", d.Name, mv.Value, d.Unit)
		switch {
		case strings.HasPrefix(d.Name, "budget."):
			verdict := "ok"
			if mv.Value < budgetLo || mv.Value > budgetHi {
				verdict = "OUTSIDE"
			}
			fmt.Fprintf(w, " %s (tolerance %g-%g)", verdict, budgetLo, budgetHi)
		case mv.Samples > 0:
			fmt.Fprintf(w, " over %d pooled samples", mv.Samples)
		case len(mv.Reps) > 0:
			fmt.Fprintf(w, " median of %d reps", len(mv.Reps))
		}
		if d.Moves != "" {
			fmt.Fprintf(w, "  -> %s", d.Moves)
		}
		fmt.Fprintln(w)
	}
	for _, d := range defs {
		row(d, rep.Metrics[d.Name])
	}
	for _, d := range workloadOnly {
		if mv, ok := rep.Detail[d.Name]; ok {
			row(d, mv)
		}
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", f)
	}
	full, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s%s\n", reportPrefix, full)
	// The driver's line: exactly these keys, each metric as measured.
	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                    `json:"correct"`
		Attempted int64                   `json:"attempted"`
		Failed    int64                   `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]driverMetric{}}
	for name, mv := range rep.Metrics {
		line.Metrics[name] = driverMetric{mv.Value, mv.Unit}
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

// resultSet is what -out writes and -compare reads: every run of every
// workload.
type resultSet struct {
	Host    host      `json:"host"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Runs    []*report `json:"runs"`
}

// runAll re-executes this binary once per workload and run — fresh
// heap, per-workload peak RSS — and collects the children's reports.
func runAll(seed int64, seconds float64, trace string, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Host: thisHost(), Seed: seed, Seconds: seconds}
	set.Host.header(os.Stdout)
	failed := false
	for _, wl := range workloads {
		for k := 0; k < runs; k++ {
			tr := trace
			if tr != "0" && tr != "1" && tr != "" {
				tr = fmt.Sprintf("%s.%s.%d.json", strings.TrimSuffix(trace, ".json"), wl.name, seed+int64(k))
			}
			cmd := exec.Command(self, "-workload", wl.name, "-seed", strconv.FormatInt(seed+int64(k), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", tr)
			var buf bytes.Buffer
			cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			rep, err := lastReport(buf.Bytes())
			if err != nil {
				return fmt.Errorf("%s seed %d: %w (child: %v)", wl.name, seed+int64(k), err, runErr)
			}
			set.Runs = append(set.Runs, rep)
			failed = failed || runErr != nil
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d runs to %s\n", len(set.Runs), out)
	}
	summarize(os.Stdout, &set)
	if failed {
		return fmt.Errorf("at least one workload failed its checks")
	}
	return nil
}

// lastReport extracts the full report a child printed.
func lastReport(output []byte) (*report, error) {
	var found []byte
	for _, line := range bytes.Split(output, []byte("\n")) {
		if bytes.HasPrefix(line, []byte(reportPrefix)) {
			found = line[len(reportPrefix):]
		}
	}
	if found == nil {
		return nil, fmt.Errorf("child printed no report")
	}
	var rep report
	if err := json.Unmarshal(found, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

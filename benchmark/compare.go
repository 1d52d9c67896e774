package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// column is every run's value of one (workload, metric) pair in a set.
type column struct {
	workload string
	def      metricDef
	values   []float64
}

// columns groups a result set's untraced runs by workload and bounded
// metric, in table order.
func columns(set *resultSet) []column {
	var cols []column
	for _, wl := range workloads {
		for _, d := range bounded() {
			c := column{workload: wl.name, def: d}
			for _, rep := range set.Runs {
				if rep.Workload != wl.name || rep.Traced {
					continue
				}
				if mv, ok := rep.Metrics[d.Name]; ok {
					c.values = append(c.values, mv.Value)
				} else if mv, ok := rep.Detail[d.Name]; ok {
					c.values = append(c.values, mv.Value)
				}
			}
			if len(c.values) > 0 {
				cols = append(cols, c)
			}
		}
	}
	return cols
}

// summarize prints each (workload, metric) median over the set's runs
// with its quartile spread — the builder's steadiness figure.
func summarize(w io.Writer, set *resultSet) {
	fmt.Fprintf(w, "\n%-16s %-16s %14s %-6s %5s %8s %6s\n", "workload", "metric", "median", "unit", "runs", "iqr/med", "bound")
	for _, c := range columns(set) {
		flag := ""
		if c.def.Name != "fail_ratio" && len(c.values) >= 4 && quartileSpread(c.values) > c.def.Bound {
			flag = "  SPREAD OVER BOUND"
		}
		fmt.Fprintf(w, "%-16s %-16s %14.6g %-6s %5d %7.2f%% %5.0f%%%s\n", c.workload, c.def.Name,
			median(c.values), c.def.Unit, len(c.values), 100*quartileSpread(c.values), 100*c.def.Bound, flag)
	}
}

// verdict judges b against a on one metric. worsening is b's median
// against a's as a share of a's, signed so that positive is worse.
//
//	unresolved: either side's run-to-run spread (quartile distance over
//	            median) is wider than the bound — unless every run of b
//	            reads better than every run of a;
//	worse:      b's median is worse than a's by more than the bound;
//	ok:         otherwise.
//
// fail_ratio's bound is absolute: b is worse when its median exceeds it.
func verdict(d metricDef, a, b []float64) (worsening float64, v string) {
	ma, mb := median(a), median(b)
	if d.Name == "fail_ratio" {
		if mb > d.Bound {
			return mb, "worse"
		}
		return mb, "ok"
	}
	if ma != 0 {
		worsening = (mb - ma) / ma
	}
	if d.Better == "higher" {
		worsening = -worsening
	}
	if max(quartileSpread(a), quartileSpread(b)) > d.Bound && !allBetter(d, a, b) {
		return worsening, "unresolved"
	}
	if worsening > d.Bound {
		return worsening, "worse"
	}
	return worsening, "ok"
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(d metricDef, a, b []float64) bool {
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if d.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// compareFiles prints one row per (workload, metric) present in both
// sets — both medians, b over a, and the verdict against the metric's
// own bound — and errors if any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s  (nproc %d, GOMAXPROCS %d, %s)\nb: %s  (nproc %d, GOMAXPROCS %d, %s)\n",
		pathA, a.Host.Nproc, a.Host.Gomaxprocs, a.Host.Go, pathB, b.Host.Nproc, b.Host.Gomaxprocs, b.Host.Go)
	fmt.Fprintf(w, "%-16s %-16s %-6s %14s %14s %10s %9s %6s  %s\n",
		"workload", "metric", "unit", "a median", "b median", "b/a", "worsening", "bound", "verdict")
	colsB := make(map[[2]string]column)
	for _, c := range columns(b) {
		colsB[[2]string{c.workload, c.def.Name}] = c
	}
	counts := map[string]int{}
	for _, ca := range columns(a) {
		cb, ok := colsB[[2]string{ca.workload, ca.def.Name}]
		if !ok {
			continue
		}
		worsening, v := verdict(ca.def, ca.values, cb.values)
		counts[v]++
		ma, mb := median(ca.values), median(cb.values)
		ratio := "-"
		if ma != 0 {
			ratio = fmt.Sprintf("%.4f", mb/ma)
		}
		fmt.Fprintf(w, "%-16s %-16s %-6s %14.6g %14.6g %10s %+8.2f%% %5.1f%%  %s\n",
			ca.workload, ca.def.Name, ca.def.Unit, ma, mb, ratio, 100*worsening, 100*ca.def.Bound, v)
	}
	fmt.Fprintf(w, "%d ok, %d worse, %d unresolved (b/a is b's median over a's; worsening is signed so that + is worse; runs per cell: a %d, b %d)\n",
		counts["ok"], counts["worse"], counts["unresolved"], len(a.Runs)/len(workloads), len(b.Runs)/len(workloads))
	if counts["worse"] > 0 {
		return fmt.Errorf("%d (workload, metric) pairs are worse in %s than in %s", counts["worse"], pathB, pathA)
	}
	return nil
}

// Command benchdiff is the same-host A/B of the repo benchmark: it
// extracts a git ref beside the working tree, runs benchmark/run.sh on
// one workload in both trees in interleaved pairs — same seed within a
// pair, the side that goes first alternating — and prints every run's
// six end-to-end metrics, both sides' medians, the ref's quartile
// distance and the change's win count, with a verdict per metric:
//
//   - WORSE: the change's median is worse than the ref's by more than
//     the metric's BENCHMARK.json bound;
//   - unresolved: the ref's quartile distance, relative to its median,
//     exceeds the bound, so the runs spread too widely to tell — unless
//     every change run beats every ref run;
//   - claimable: over at least ten pairs, the change wins at least 9 in
//     10 and its median beats the ref's by more than the ref's quartile
//     distance, the bar a claimed gain must clear;
//   - ok: none of these.
//
// It exits non-zero if a metric is WORSE or the working tree failed more
// operations; an unresolved metric is reported, not failed. Beside the
// ref's quartile distance it prints the ref's min–max, and a WORSE from
// fewer than ten pairs carries a note saying so: on a millisecond metric
// three pairs can read WORSE on host noise alone.
//
// Usage (from the repo root; `make benchdiff REF=... WORKLOAD=... PAIRS=...`):
//
//	go run ./internal/benchdiff -ref HEAD~1 -workload churn-n512 -pairs 10
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

type metric struct {
	Name, Better string
	Bound        float64
}

type result struct {
	Failed  int64
	Metrics map[string]struct{ Value float64 }
}

func main() {
	ref := flag.String("ref", "HEAD", "git ref to compare the working tree against")
	workload := flag.String("workload", "churn-n512", "benchmark workload")
	pairs := flag.Int("pairs", 10, "interleaved ref/change pairs")
	seed := flag.Int64("seed", 1, "seed of the first pair; pair i runs both sides at seed+i")
	dir := flag.String("dir", ".benchdiff", "where ref trees are extracted (git-ignored)")
	flag.Parse()
	if err := run(*ref, *workload, *pairs, *seed, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(ref, workload string, pairs int, seed int64, dir string) error {
	var decl struct {
		RunSeconds float64  `json:"run_seconds"`
		EndToEnd   []metric `json:"end_to_end"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &decl)
	}
	if err != nil {
		return err
	}
	sha, err := exec.Command("git", "rev-parse", "--short", ref+"^{commit}").Output()
	if err != nil {
		return fmt.Errorf("resolving %s: %w", ref, err)
	}
	tree := filepath.Join(dir, strings.TrimSpace(string(sha)))
	if _, err := os.Stat(tree); err != nil {
		if err := os.MkdirAll(tree, 0o755); err != nil {
			return err
		}
		// An archive, not a worktree: nothing is registered in .git.
		extract := exec.Command("sh", "-c", `git archive "$1" | tar -x -C "$2"`, "sh", strings.TrimSpace(string(sha)), tree)
		if out, err := extract.CombinedOutput(); err != nil {
			return fmt.Errorf("extracting %s: %v: %s", ref, err, out)
		}
	}
	sides := [2]string{"ref", "change"}
	trees := [2]string{tree, "."}
	vals := map[string]*[2][]float64{}
	for _, m := range decl.EndToEnd {
		vals[m.Name] = &[2][]float64{}
	}
	var failed [2]int64
	fmt.Printf("%s: %s (%s) vs the working tree, %d pairs from seed %d, %gs each\n%-4s %-5s %-6s", workload, ref, tree, pairs, seed, decl.RunSeconds, "pair", "seed", "side")
	for _, m := range decl.EndToEnd {
		fmt.Printf(" %14s", m.Name)
	}
	fmt.Printf(" %6s\n", "failed")
	for i := 0; i < pairs; i++ {
		for k := 0; k < 2; k++ {
			side := (i + k) % 2 // alternate which side runs first
			cmd := exec.Command("bash", "benchmark/run.sh", "--workload", workload, "--seed", fmt.Sprint(seed+int64(i)),
				"--seconds", fmt.Sprint(decl.RunSeconds), "--trace", "0")
			cmd.Dir, cmd.Stderr = trees[side], os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("pair %d %s: %w", i, sides[side], err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("pair %d %s: last line is not the driver's JSON: %w", i, sides[side], err)
			}
			failed[side] += res.Failed
			fmt.Printf("%-4d %-5d %-6s", i, seed+int64(i), sides[side])
			for _, m := range decl.EndToEnd {
				v := res.Metrics[m.Name].Value
				vals[m.Name][side] = append(vals[m.Name][side], v)
				fmt.Printf(" %14.6g", v)
			}
			fmt.Printf(" %6d\n", res.Failed)
		}
	}
	worse := failed[1] > failed[0]
	fmt.Printf("\n%-16s %14s %14s %8s %10s %21s %6s  %s\n", "metric", "ref median", "change median", "ratio", "ref IQR", "ref min–max", "wins", "verdict (bound)")
	for _, m := range decl.EndToEnd {
		v := vals[m.Name]
		a, b := quantile(v[0], 0.5), quantile(v[1], 0.5)
		verdict, iqr, wins := judge(m, v[0], v[1])
		worse = worse || verdict == "WORSE"
		span := fmt.Sprintf("%.4g–%.4g", quantile(v[0], 0), quantile(v[0], 1))
		fmt.Printf("%-16s %14.6g %14.6g %8.3f %10.4g %21s %3d/%-2d  %s (%g)%s\n", m.Name, a, b, b/a, iqr, span, wins, pairs, verdict, m.Bound, fewPairsNote(verdict, pairs))
	}
	fmt.Printf("failed operations: ref %d, change %d\n", failed[0], failed[1])
	if worse {
		return fmt.Errorf("the working tree is worse than %s on %s", ref, workload)
	}
	return nil
}

// judge gives one metric's verdict (see the package doc) from the ref's
// and the change's runs, pair i being ref[i] and change[i], with the
// ref's quartile distance and the pairs the change won.
func judge(m metric, ref, change []float64) (verdict string, iqr float64, wins int) {
	// gain(x, y) > 0 when x is better than y.
	gain := func(x, y float64) float64 {
		if m.Better == "lower" {
			return y - x
		}
		return x - y
	}
	a, b := quantile(ref, 0.5), quantile(change, 0.5)
	iqr = quantile(ref, 0.75) - quantile(ref, 0.25)
	sweep := true
	for i, c := range change {
		if gain(c, ref[i]) > 0 {
			wins++
		}
		for _, r := range ref {
			sweep = sweep && gain(c, r) > 0
		}
	}
	switch {
	case -gain(b, a)/a > m.Bound:
		return "WORSE", iqr, wins
	case iqr/a > m.Bound && !sweep:
		return "unresolved", iqr, wins
	case len(change) >= 10 && 10*wins >= 9*len(change) && gain(b, a) > iqr:
		return "claimable", iqr, wins
	}
	return "ok", iqr, wins
}

// fewPairsNote is what a verdict line adds when a WORSE rests on fewer
// pairs than a claimed gain needs; the verdict and the exit status stand.
func fewPairsNote(verdict string, pairs int) string {
	if verdict != "WORSE" || pairs >= 10 {
		return ""
	}
	return fmt.Sprintf("  [from %d pairs, under 10: rerun with more pairs to tell a regression from host noise]", pairs)
}

// quantile is the q-quantile of v, interpolated linearly between the
// order statistics (the median of an even count is the mean of the
// middle two).
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	x := q * float64(len(s)-1)
	i := int(x)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (x-float64(i))*(s[i+1]-s[i])
}

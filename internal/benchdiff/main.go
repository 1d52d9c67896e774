// Command benchdiff is the same-host A/B of the repo benchmark: it
// extracts a git ref beside the working tree, runs benchmark/run.sh on
// one workload in both trees in interleaved pairs — same seed within a
// pair, the side that goes first alternating — and prints every run's
// six end-to-end metrics, both sides' medians and the change's win
// count. It exits non-zero if a median of the working tree is worse than
// the ref's by more than the metric's BENCHMARK.json bound, or if it
// failed more operations.
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
	fmt.Printf("\n%-16s %14s %14s %8s %6s  %s\n", "metric", "ref median", "change median", "ratio", "wins", "verdict (bound)")
	for _, m := range decl.EndToEnd {
		v := vals[m.Name]
		a, b := median(v[0]), median(v[1])
		wins := 0
		for i := range v[0] {
			if v[1][i] != v[0][i] && (v[1][i] < v[0][i]) == (m.Better == "lower") {
				wins++
			}
		}
		loss := (b - a) / a // relative worsening
		if m.Better != "lower" {
			loss = -loss
		}
		verdict := "ok"
		if loss > m.Bound {
			verdict, worse = "WORSE", true
		}
		fmt.Printf("%-16s %14.6g %14.6g %8.3f %3d/%-2d  %s (%g)\n", m.Name, a, b, b/a, wins, pairs, verdict, m.Bound)
	}
	fmt.Printf("failed operations: ref %d, change %d\n", failed[0], failed[1])
	if worse {
		return fmt.Errorf("the working tree is worse than %s on %s", ref, workload)
	}
	return nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

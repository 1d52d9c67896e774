package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestEveryExperimentRuns drives each paper experiment at a small n:
// each must print its titled table, and the serving and churn names the
// repo benchmark measures, and fewer than two nodes, must be refused.
func TestEveryExperimentRuns(t *testing.T) {
	for _, tc := range []struct {
		exp   string
		n     int
		title string
	}{
		{"fig1", 24, "# E1 / Fig. 1"},
		{"fig2", 24, "# E2 / Fig. 2"},
		{"fig5", 32, "# Fig. 5"},
		{"fig10", 24, "# Fig. 10"},
		{"space", 24, "# E9"}, // the sweep picks its own sizes
		{"stretch", 24, "# E3/E4/E6"},
		{"profile", 24, "# stretch profile"},
		{"lower", 12, "# E8 / Theorem 15"},
		{"ablation", 24, "# E10"},
	} {
		var out bytes.Buffer
		if err := run(&out, tc.exp, tc.n, 1, []int{2, 3}); err != nil {
			t.Fatalf("-exp %s: %v", tc.exp, err)
		}
		if got := out.String(); !strings.HasPrefix(got, tc.title) || strings.Count(got, "\n") < 4 {
			t.Fatalf("-exp %s printed:\n%s", tc.exp, got)
		}
		if err := run(new(bytes.Buffer), tc.exp, 1, 1, []int{2}); err == nil {
			t.Fatalf("-exp %s -n 1 accepted", tc.exp)
		}
	}
	for _, exp := range []string{"traffic", "cluster", "churn", "churncluster", "nope"} {
		if err := run(new(bytes.Buffer), exp, 24, 1, []int{2}); err == nil {
			t.Fatalf("-exp %s accepted", exp)
		}
	}
}

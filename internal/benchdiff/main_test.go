package main

import "testing"

// TestJudgeFollowsTheClaimRule walks the four verdicts on hand-made
// runs: a loss past the bound, a spread past the bound with and without
// a clean sweep, a gain at 9 wins in 10 clearing the ref's quartile
// distance, the same gain one win short, and a clean gain over fewer
// than ten pairs.
func TestJudgeFollowsTheClaimRule(t *testing.T) {
	higher := metric{Name: "rt_per_s", Better: "higher", Bound: 0.1}
	lower := metric{Name: "setup_s", Better: "lower", Bound: 0.1}
	ten := func(v float64) []float64 {
		s := make([]float64, 10)
		for i := range s {
			s[i] = v + float64(i%2)
		}
		return s
	}
	cases := []struct {
		name        string
		m           metric
		ref, change []float64
		want        string
		wins        int
	}{
		{"worse", higher, ten(100), ten(80), "WORSE", 0},
		{"worse lower-is-better", lower, ten(100), ten(120), "WORSE", 0},
		{"spread too wide", higher, []float64{80, 100, 120, 140}, []float64{90, 110, 130, 130}, "unresolved", 3},
		{"spread swept", higher, []float64{80, 100, 120, 140}, []float64{150, 151, 152, 153}, "ok", 4},
		{"too few pairs", lower, []float64{100, 101, 100}, []float64{90, 91, 90}, "ok", 3},
		{"claimable", lower, ten(100), append(ten(90)[:9], 101), "claimable", 9},
		{"one win short", lower, ten(100), append(ten(90)[:8], 101, 101), "ok", 8},
		{"gain inside the spread", higher, []float64{100, 104, 100, 104}, []float64{103, 105, 103, 105}, "ok", 4},
	}
	for _, tc := range cases {
		got, _, wins := judge(tc.m, tc.ref, tc.change)
		if got != tc.want || wins != tc.wins {
			t.Errorf("%s: verdict %q with %d wins, want %q with %d", tc.name, got, wins, tc.want, tc.wins)
		}
	}
}

// TestFewPairsNote: only a WORSE from fewer than ten pairs is annotated.
func TestFewPairsNote(t *testing.T) {
	for _, c := range []struct {
		verdict string
		pairs   int
		noted   bool
	}{{"WORSE", 3, true}, {"WORSE", 9, true}, {"WORSE", 10, false}, {"ok", 3, false}, {"unresolved", 3, false}, {"claimable", 10, false}} {
		if got := fewPairsNote(c.verdict, c.pairs); (got != "") != c.noted {
			t.Errorf("%s over %d pairs: note %q, want noted=%v", c.verdict, c.pairs, got, c.noted)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}} {
		if got := quantile(v, c.q); got != c.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", v, c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.75); got != 7 {
		t.Errorf("quantile of one run = %g, want 7", got)
	}
}

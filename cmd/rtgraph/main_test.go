package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestStatistics pins the printed statistics on two graphs whose
// distances are known: a directed ring (d(u,v) = (v-u) mod n, so every
// roundtrip is n) and a bidirected 3×3 grid (symmetric).
func TestStatistics(t *testing.T) {
	for _, tc := range []struct {
		typ  string
		n    int
		want []string
	}{
		{"ring", 8, []string{
			"one-way diameter:    7\n",
			"roundtrip diameter:  8\n",
			"symmetric pairs:     4 / 28\n",
			"max d(u,v)/d(v,u):   7.00\n",
		}},
		{"grid", 9, []string{
			"one-way diameter:    4\n",
			"roundtrip diameter:  8\n",
			"symmetric pairs:     36 / 36\n",
			"max d(u,v)/d(v,u):   1.00\n",
		}},
	} {
		var out bytes.Buffer
		if err := run(&out, tc.typ, tc.n, 1, 8, "", false); err != nil {
			t.Fatalf("-type %s -n %d: %v", tc.typ, tc.n, err)
		}
		for _, line := range tc.want {
			if !strings.Contains(out.String(), line) {
				t.Errorf("-type %s -n %d: missing %q in:\n%s", tc.typ, tc.n, line, out.String())
			}
		}
	}
}

// TestBadInputIsAnError: too few nodes and an unknown family are errors,
// and a layered graph smaller than two layers is padded to two.
func TestBadInputIsAnError(t *testing.T) {
	for _, tc := range []struct {
		typ string
		n   int
	}{{"random", 1}, {"ring", 0}, {"nope", 16}} {
		if err := run(new(bytes.Buffer), tc.typ, tc.n, 1, 8, "", false); err == nil {
			t.Errorf("-type %s -n %d accepted", tc.typ, tc.n)
		}
	}
	var out bytes.Buffer
	if err := run(&out, "layered", 4, 1, 8, "", false); err != nil {
		t.Fatalf("-type layered -n 4: %v", err)
	}
	if !strings.Contains(out.String(), "nodes / edges:       8 /") {
		t.Fatalf("-type layered -n 4 printed:\n%s", out.String())
	}
}

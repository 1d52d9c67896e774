package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// pairsLine returns the "pairs:" summary line of an -all run.
func pairsLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "pairs:") {
			return line
		}
	}
	t.Fatalf("no pairs: line in:\n%s", out)
	return ""
}

// TestAllPairsSurvivesSnapshot is the wire codec end to end: -all on a
// freshly built scheme and -all on its -save/-load snapshot print the
// same summary, the one pinned here.
func TestAllPairsSurvivesSnapshot(t *testing.T) {
	const want = "pairs: 2256  max stretch: 2.500  mean: 1.237  p99: 2.214  max header: 24 words"
	var built bytes.Buffer
	if err := run(&built, 48, 3, "stretch6", 2, 0, 1, true, "random", "", false, "", ""); err != nil {
		t.Fatal(err)
	}
	if got := pairsLine(t, built.String()); got != want {
		t.Fatalf("built: %q, want %q", got, want)
	}
	snap := filepath.Join(t.TempDir(), "s6.rtwf")
	if err := run(new(bytes.Buffer), 48, 3, "stretch6", 2, 0, 1, false, "random", "", false, snap, ""); err != nil {
		t.Fatal(err)
	}
	var loaded bytes.Buffer
	if err := run(&loaded, 0, 3, "", 2, 0, 1, true, "", "", false, "", snap); err != nil {
		t.Fatal(err)
	}
	if got := pairsLine(t, loaded.String()); got != want {
		t.Fatalf("loaded: %q, want %q", got, want)
	}
}

// TestSmallNetworks: fewer than two nodes is an error, and every scheme
// routes all pairs of a five-node network, where the random family's
// 4n extra edges exceed the free ordered pairs.
func TestSmallNetworks(t *testing.T) {
	if err := run(new(bytes.Buffer), 1, 1, "stretch6", 2, 0, 1, true, "random", "", false, "", ""); err == nil {
		t.Fatal("-n 1 accepted")
	}
	for _, scheme := range []string{"stretch6", "exstretch", "poly", "rtz", "hop"} {
		var out bytes.Buffer
		if err := run(&out, 5, 1, scheme, 2, 0, 1, true, "random", "", false, "", ""); err != nil {
			t.Fatalf("-n 5 -scheme %s: %v", scheme, err)
		}
		if got := pairsLine(t, out.String()); !strings.HasPrefix(got, "pairs: 20 ") {
			t.Fatalf("-n 5 -scheme %s: %q", scheme, got)
		}
	}
}

package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := RandomSC(40, 160, 12, rng)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", back.N(), back.M(), g.N(), g.M())
	}
	for u := 0; u < g.N(); u++ {
		a, b := g.Out(NodeID(u)), back.Out(NodeID(u))
		if len(a) != len(b) {
			t.Fatalf("node %d degree differs", u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d edge %d: %+v vs %+v", u, i, a[i], b[i])
			}
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := `# a comment
rtroute-graph v1

n 3
# another comment
e 0 1 5 7
e 1 2 2 0
e 2 0 1 3
`
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("got %d nodes %d edges", g.N(), g.M())
	}
	p, ok := g.PortTo(0, 1)
	if !ok || p != 7 {
		t.Fatalf("port(0,1) = %d, %v; want 7", p, ok)
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"bad header", "nonsense v9\nn 2\n"},
		{"missing n", "rtroute-graph v1\n"},
		{"bad n", "rtroute-graph v1\nn x\n"},
		{"negative n", "rtroute-graph v1\nn -4\n"},
		{"bad edge", "rtroute-graph v1\nn 2\ne 0 zebra 1 0\n"},
		{"self loop", "rtroute-graph v1\nn 2\ne 0 0 1 0\n"},
		{"zero weight", "rtroute-graph v1\nn 2\ne 0 1 0 0\n"},
		{"out of range", "rtroute-graph v1\nn 2\ne 0 5 1 0\n"},
		{"dup port", "rtroute-graph v1\nn 3\ne 0 1 1 9\ne 0 2 1 9\n"},
		{"dup edge", "rtroute-graph v1\nn 2\ne 0 1 1 0\ne 0 1 2 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(tc.in)); err == nil {
				t.Fatalf("malformed input accepted: %q", tc.in)
			}
		})
	}
}

func TestDOTOutput(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1, 4)
	dot := g.DOT("toy")
	for _, want := range []string{"digraph toy", "0 -> 1", "label=4"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

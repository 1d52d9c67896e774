// Command rtgraph generates the synthetic networks used by the
// experiments and prints their structural statistics, including the
// roundtrip-metric quantities the paper's analyses revolve around.
//
// Usage:
//
//	rtgraph -type random -n 64 -seed 3
//	rtgraph -type layered -n 40 -seed 1
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"rtroute/internal/graph"
)

func main() {
	var (
		typ  = flag.String("type", "random", "graph family: "+graph.Families)
		n    = flag.Int("n", 64, "number of nodes")
		seed = flag.Int64("seed", 1, "random seed")
		maxW = flag.Int64("maxw", 8, "maximum edge weight")
		out  = flag.String("o", "", "write the graph to this file (exchange format)")
		dot  = flag.Bool("dot", false, "print Graphviz DOT instead of statistics")
	)
	flag.Parse()
	if err := run(os.Stdout, *typ, *n, *seed, graph.Dist(*maxW), *out, *dot); err != nil {
		fmt.Fprintln(os.Stderr, "rtgraph:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, typ string, n int, seed int64, maxW graph.Dist, out string, dot bool) error {
	g, err := graph.Generate(typ, n, maxW, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := g.WriteTo(f); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d nodes / %d edges to %s\n", g.N(), g.M(), out)
	}
	if dot {
		fmt.Fprint(w, g.DOT(typ))
		return nil
	}

	// Every statistic comes from the two rows anchored at each node u:
	// d(u,·) and d(·,u) cover the pairs (u,v) and (v,u) for v > u.
	m := graph.AllPairs(g)
	var diam, rtDiam graph.Dist
	var maxRatio float64
	var symPairs, pairs int
	for u := 0; u < g.N(); u++ {
		fwd, rev := m.FromSource(graph.NodeID(u)), m.ToSink(graph.NodeID(u))
		for v, d := range fwd {
			diam = max(diam, d)
			if v <= u {
				continue
			}
			rtDiam = max(rtDiam, graph.RFromRows(fwd, rev, graph.NodeID(v)))
			duv, dvu := float64(d), float64(rev[v])
			pairs++
			if duv == dvu {
				symPairs++
			}
			ratio := duv / dvu
			if ratio < 1 {
				ratio = 1 / ratio
			}
			maxRatio = max(maxRatio, ratio)
		}
	}
	fmt.Fprintf(w, "family:              %s\n", typ)
	fmt.Fprintf(w, "nodes / edges:       %d / %d\n", g.N(), g.M())
	fmt.Fprintf(w, "strongly connected:  %v\n", graph.StronglyConnected(g))
	fmt.Fprintf(w, "max edge weight:     %d\n", g.MaxWeight())
	fmt.Fprintf(w, "one-way diameter:    %d\n", diam)
	fmt.Fprintf(w, "roundtrip diameter:  %d\n", rtDiam)
	fmt.Fprintf(w, "symmetric pairs:     %d / %d\n", symPairs, pairs)
	fmt.Fprintf(w, "max d(u,v)/d(v,u):   %.2f\n", maxRatio)
	return nil
}

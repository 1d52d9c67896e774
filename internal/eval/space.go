package eval

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"rtroute/internal/blocks"
	"rtroute/internal/core"
	"rtroute/internal/graph"
	"rtroute/internal/names"
	"rtroute/internal/wire"
)

// EncodedSpacePoint is one sample of the E14 empirical space
// certification: per-node routing state measured through the wire codec
// — real bytes and real entry counts, not abstract words.
type EncodedSpacePoint struct {
	N          int
	Scheme     string
	MaxBytes   int     // largest node's encoded section
	AvgBytes   float64 // mean encoded section
	AvgEntries float64 // mean table entries per node (dictionary + substrate)
}

// EncodedSpaceConfig tunes EncodedSpaceSweep.
type EncodedSpaceConfig struct {
	// Ns are the graph sizes to sample (default 256, 1024, 4096).
	Ns []int
	// Seed drives graph generation, naming and construction.
	Seed int64
}

// EncodedSpaceSweep builds the stretch-6 scheme across graph sizes and
// measures every node's section through the wire codec. The paper's
// Theorem 6 claims Õ(sqrt n) per-node tables: entries grow as sqrt n
// (times the Lemma 1 assignment's residual log factor) while each entry
// — an o(log^2 n)-bit R3 label — widens with log n, so the entry-count
// exponent is the sqrt-n certification and the byte exponent sits one
// log-width above it. The sweep uses the deterministic greedy block
// assignment (blocks.Config.Greedy): the Lemma is existential, so the
// space bound is measured on the leanest verifying assignment.
func EncodedSpaceSweep(cfg EncodedSpaceConfig) ([]EncodedSpacePoint, error) {
	ns := cfg.Ns
	if len(ns) == 0 {
		ns = []int{256, 1024, 4096}
	}
	var pts []EncodedSpacePoint
	for _, n := range ns {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		g := graph.RandomSC(n, 4*n, 8, rng)
		m := graph.AllPairs(g)
		perm := names.Random(n, rng)
		s6, err := core.NewStretchSix(g, m, perm, rng, core.Stretch6Config{
			Blocks: blocks.Config{Greedy: true},
		})
		if err != nil {
			return nil, fmt.Errorf("eval: encoded space sweep n=%d: %w", n, err)
		}
		sizes, err := wire.NodeSizes(s6)
		if err != nil {
			return nil, fmt.Errorf("eval: encoded space sweep n=%d: %w", n, err)
		}
		pt := EncodedSpacePoint{N: n, Scheme: "stretch6"}
		totalBytes, totalEntries := 0, 0
		for v, b := range sizes {
			totalBytes += b
			if b > pt.MaxBytes {
				pt.MaxBytes = b
			}
			totalEntries += s6.TableEntries(graph.NodeID(v))
		}
		pt.AvgBytes = float64(totalBytes) / float64(len(sizes))
		pt.AvgEntries = float64(totalEntries) / float64(len(sizes))
		pts = append(pts, pt)
	}
	return pts, nil
}

// loglogSlope is the least-squares slope of log(y) against log(N).
func loglogSlope(pts []EncodedSpacePoint, y func(EncodedSpacePoint) float64) float64 {
	if len(pts) < 2 {
		return math.NaN()
	}
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		xv, yv := math.Log(float64(p.N)), math.Log(y(p))
		sx += xv
		sy += yv
		sxx += xv * xv
		sxy += xv * yv
	}
	n := float64(len(pts))
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// EncodedSpaceSlope returns the growth exponent of encoded bytes per
// node: the entry-count exponent plus the log-width of each entry.
func EncodedSpaceSlope(pts []EncodedSpacePoint) float64 {
	return loglogSlope(pts, func(p EncodedSpacePoint) float64 { return p.AvgBytes })
}

// EncodedEntriesSlope returns the growth exponent of table entries per
// node — the paper's Õ(sqrt n) claim with the polylog entry width
// factored out (expect ~0.5-0.65 at these sizes).
func EncodedEntriesSlope(pts []EncodedSpacePoint) float64 {
	return loglogSlope(pts, func(p EncodedSpacePoint) float64 { return p.AvgEntries })
}

// FormatEncodedSpace renders the sweep with both fitted exponents.
func FormatEncodedSpace(pts []EncodedSpacePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-10s %14s %14s %14s %12s\n",
		"n", "scheme", "maxBytes/node", "avgBytes/node", "entries/node", "bytes/entry")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-8d %-10s %14d %14.1f %14.1f %12.1f\n",
			p.N, p.Scheme, p.MaxBytes, p.AvgBytes, p.AvgEntries, p.AvgBytes/p.AvgEntries)
	}
	fmt.Fprintf(&b, "log-log slope, entries/node vs n: %.3f (Theorem 6's O~(sqrt n) table entries)\n",
		EncodedEntriesSlope(pts))
	fmt.Fprintf(&b, "log-log slope, bytes/node   vs n: %.3f (entries exponent + log-width of each o(log^2 n)-bit label)\n",
		EncodedSpaceSlope(pts))
	return b.String()
}

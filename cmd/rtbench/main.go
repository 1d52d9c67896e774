// Command rtbench runs the paper's experiments and prints their tables.
// Serving, churn and build performance are measured by the repo
// benchmark (benchmark/run.sh), not here.
//
// Usage:
//
//	rtbench -exp fig1  -n 64  -seed 1 -k 2,3   # comparison table (E1)
//	rtbench -exp fig2  -n 36  -seed 1          # block distribution (E2, Fig. 2)
//	rtbench -exp fig5  -n 64  -seed 1          # prefix-matching dictionary walk (E5)
//	rtbench -exp fig10 -n 64  -seed 1          # center-relayed tree route (E7)
//	rtbench -exp space -seed 1                 # table-size sweep (E9)
//	rtbench -exp stretch -n 48 -seed 1         # per-scheme stretch distributions (E3/E4/E6)
//	rtbench -exp profile -n 64 -seed 1         # stretch by roundtrip-distance quantile
//	rtbench -exp lower -n 25 -seed 1           # Theorem 15 reduction (E8)
//	rtbench -exp ablation -n 36 -seed 1        # cover-variant ablation (E10)
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"rtroute"
	"rtroute/internal/core"
)

func main() {
	var (
		exp  = flag.String("exp", "fig1", "experiment: fig1|fig2|fig5|fig10|space|stretch|profile|lower|ablation")
		n    = flag.Int("n", 64, "number of nodes")
		seed = flag.Int64("seed", 1, "random seed")
		ks   = flag.String("k", "2,3", "comma-separated tradeoff parameters")
	)
	flag.Parse()

	if err := run(os.Stdout, *exp, *n, *seed, parseKs(*ks)); err != nil {
		fmt.Fprintln(os.Stderr, "rtbench:", err)
		os.Exit(1)
	}
}

func parseKs(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		if k, err := strconv.Atoi(strings.TrimSpace(part)); err == nil && k >= 2 {
			out = append(out, k)
		}
	}
	if len(out) == 0 {
		out = []int{2}
	}
	return out
}

// run writes experiment exp's table to w.
func run(w io.Writer, exp string, n int, seed int64, ks []int) error {
	if n < 2 {
		return fmt.Errorf("need at least 2 nodes, got -n %d", n)
	}
	switch exp {
	case "fig1":
		return runFig1(w, n, seed, ks)
	case "fig2":
		return runFig2(w, n, seed)
	case "fig5":
		return runFig5(w, n, seed)
	case "fig10":
		return runFig10(w, n, seed)
	case "space":
		return runSpace(w, seed)
	case "stretch":
		return runStretch(w, n, seed, ks)
	case "profile":
		return runProfile(w, n, seed)
	case "lower":
		return runLower(w, n, seed)
	case "ablation":
		return runAblation(w, n, seed)
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

func runProfile(w io.Writer, n int, seed int64) error {
	fmt.Fprintf(w, "# stretch profile by roundtrip distance (n=%d, seed=%d)\n\n", n, seed)
	rng := rand.New(rand.NewSource(seed))
	g := rtroute.RandomSC(n, 4*n, 8, rng)
	sys, err := rtroute.NewSystem(g, rtroute.RandomNaming(n, rng))
	if err != nil {
		return err
	}
	for _, b := range []struct {
		name  string
		build func() (rtroute.Scheme, error)
	}{
		{"stretch6", func() (rtroute.Scheme, error) { return sys.Build(rtroute.StretchSix, rtroute.WithSeed(seed)) }},
		{"polystretch k=2", func() (rtroute.Scheme, error) { return sys.Build(rtroute.Polynomial, rtroute.WithK(2)) }},
	} {
		sch, err := b.build()
		if err != nil {
			return err
		}
		buckets, err := rtroute.ProfileScheme(sys, sch, 5000, 5, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s:\n%s\n", b.name, rtroute.FormatProfile(buckets))
	}
	fmt.Fprintln(w, "nearby destinations pay relatively more: dictionary detours dominate small r(s,t)")
	return nil
}

func runFig5(w io.Writer, n int, seed int64) error {
	fmt.Fprintf(w, "# Fig. 5 — prefix-matching dictionary walk (ExStretch, n=%d, seed=%d)\n\n", n, seed)
	rng := rand.New(rand.NewSource(seed))
	g := rtroute.RandomSC(n, 4*n, 6, rng)
	sys, err := rtroute.NewSystem(g, rtroute.RandomNaming(n, rng))
	if err != nil {
		return err
	}
	sch, err := sys.Build(rtroute.ExStretch, rtroute.WithK(4), rtroute.WithSeed(seed))
	if err != nil {
		return err
	}
	ex := sch.(*core.ExStretch)
	printed := 0
	for src := 0; src < n && printed < 3; src++ {
		dst := (src*37 + n/2) % n
		if src == dst {
			continue
		}
		srcName := sys.Naming.Name(int32(src))
		dstName := sys.Naming.Name(int32(dst))
		steps, err := ex.PrefixTrace(srcName, dstName)
		if err != nil {
			return err
		}
		if len(steps) < 3 {
			continue // walk too short to illustrate; try another pair
		}
		printed++
		fmt.Fprintf(w, "destination name %d = digits %v (base %d)\n", dstName, ex.Universe().Digits(dstName), ex.Universe().Q)
		for i, st := range steps {
			fmt.Fprintf(w, "  v_%d: node %3d  name %4d  digits %v  holds block matching %d digit(s) of target\n",
				i, st.Node, st.Name, st.Digits, st.Matched)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "each waypoint's blocks match a strictly longer prefix — the Fig. 5 schematic")
	return nil
}

func runFig10(w io.Writer, n int, seed int64) error {
	fmt.Fprintf(w, "# Fig. 10 — center-relayed route inside a home double-tree (PolynomialStretch, n=%d, seed=%d)\n\n", n, seed)
	rng := rand.New(rand.NewSource(seed))
	g := rtroute.RandomSC(n, 4*n, 6, rng)
	sys, err := rtroute.NewSystem(g, rtroute.RandomNaming(n, rng))
	if err != nil {
		return err
	}
	sch, err := sys.Build(rtroute.Polynomial, rtroute.WithK(2))
	if err != nil {
		return err
	}
	poly := sch.(*core.PolynomialStretch)
	src := sys.Naming.Name(0)
	dst := sys.Naming.Name(int32(n / 2))
	tr, err := poly.Roundtrip(src, dst)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "roundtrip name %d -> %d -> %d\n", src, dst, src)
	fmt.Fprintf(w, "  out path  (topological ids): %v\n", tr.Out.Path)
	fmt.Fprintf(w, "  back path (topological ids): %v\n", tr.Back.Path)
	for lvl := 0; lvl < poly.Levels(); lvl++ {
		root, err := poly.HomeTreeRoot(src, lvl)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  level %d home-tree center (name): %d\n", lvl, root)
	}
	fmt.Fprintln(w, "\nthe packet repeatedly relays through its tree's center, as in Fig. 10")
	return nil
}

func runFig1(w io.Writer, n int, seed int64, ks []int) error {
	fmt.Fprintf(w, "# E1 / Fig. 1 — scheme comparison on a random SC digraph (n=%d, seed=%d)\n\n", n, seed)
	rows, err := rtroute.Fig1(rtroute.Fig1Config{
		N: n, Seed: seed, Ks: ks,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(w, rtroute.FormatFig1(rows))
	fmt.Fprintln(w, "\nstretch columns are measured over sampled ordered pairs; bounds are the paper's worst cases")
	return nil
}

func runFig2(w io.Writer, n int, seed int64) error {
	fmt.Fprintf(w, "# E2 / Fig. 2 — block distribution (Lemma 1) on n=%d, seed=%d\n\n", n, seed)
	rng := rand.New(rand.NewSource(seed))
	g := rtroute.RandomSC(n, 3*n, 1, rng)
	sys, err := rtroute.NewSystem(g, rtroute.RandomNaming(n, rng))
	if err != nil {
		return err
	}
	sch, err := sys.Build(rtroute.StretchSix, rtroute.WithSeed(seed))
	if err != nil {
		return err
	}
	s6 := sch.(*core.StretchSix)
	fmt.Fprintf(w, "%-8s %-20s\n", "node", "neighborhood size")
	for v := 0; v < n && v < 12; v++ {
		fmt.Fprintf(w, "%-8d %-20d\n", v, s6.NeighborhoodEntries(rtroute.NodeID(v)))
	}
	fmt.Fprintf(w, "...\nmax table words: %d  avg: %.1f\n", s6.MaxTableWords(), s6.AvgTableWords())
	fmt.Fprintln(w, "every neighborhood covers every block type (verified at construction)")
	return nil
}

func runSpace(w io.Writer, seed int64) error {
	fmt.Fprintf(w, "# E9 — table size vs n for the stretch-6 scheme (seed=%d)\n\n", seed)
	pts, err := rtroute.SpaceSweep([]int{64, 128, 256, 512}, seed)
	if err != nil {
		return err
	}
	fmt.Fprint(w, rtroute.FormatSpaceSweep(pts))
	fmt.Fprintln(w, "\navg/sqrt(n) should be roughly flat times polylog growth")
	return nil
}

func runStretch(w io.Writer, n int, seed int64, ks []int) error {
	fmt.Fprintf(w, "# E3/E4/E6 — stretch distributions (n=%d, seed=%d)\n\n", n, seed)
	rng := rand.New(rand.NewSource(seed))
	g := rtroute.RandomSC(n, 4*n, 8, rng)
	sys, err := rtroute.NewSystem(g, rtroute.RandomNaming(n, rng))
	if err != nil {
		return err
	}
	type build struct {
		name  string
		bound string
		sch   rtroute.Scheme
	}
	var builds []build
	s6, err := sys.Build(rtroute.StretchSix, rtroute.WithSeed(seed))
	if err != nil {
		return err
	}
	builds = append(builds, build{"stretch6", "6", s6})
	for _, k := range ks {
		ex, err := sys.Build(rtroute.ExStretch, rtroute.WithK(k), rtroute.WithSeed(seed))
		if err != nil {
			return err
		}
		builds = append(builds, build{fmt.Sprintf("exstretch k=%d", k), fmt.Sprintf("(2^%d-1)*hop", k), ex})
		poly, err := sys.Build(rtroute.Polynomial, rtroute.WithK(k))
		if err != nil {
			return err
		}
		builds = append(builds, build{fmt.Sprintf("polystretch k=%d", k), fmt.Sprintf("%d", 8*k*k+4*k-4), poly})
	}
	fmt.Fprintf(w, "%-18s %-14s %8s %8s %8s %10s\n", "scheme", "bound", "maxS", "meanS", "p99S", "maxHdrW")
	for _, b := range builds {
		stats, err := rtroute.MeasureScheme(sys, b.sch, 4000, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", b.name, err)
		}
		fmt.Fprintf(w, "%-18s %-14s %8.3f %8.3f %8.3f %10d\n",
			b.name, b.bound, stats.Max, stats.Mean, stats.P99, stats.MaxHeaderWords)
	}
	return nil
}

func runLower(w io.Writer, n int, seed int64) error {
	fmt.Fprintf(w, "# E8 / Theorem 15 — reduction on a bidirected graph (n=%d, seed=%d)\n\n", n, seed)
	rng := rand.New(rand.NewSource(seed))
	g := rtroute.Bidirect(rtroute.RandomSC(n, 3*n, 4, rng))
	g.AssignPorts(rng.Intn)
	sys, err := rtroute.NewSystem(g, rtroute.RandomNaming(g.N(), rng))
	if err != nil {
		return err
	}
	s6, err := sys.Build(rtroute.StretchSix, rtroute.WithSeed(seed))
	if err != nil {
		return err
	}
	reports, err := rtroute.AnalyzeLowerBound(sys, s6)
	if err != nil {
		return err
	}
	sum := rtroute.SummarizeLowerBound(reports)
	fmt.Fprintf(w, "pairs analyzed:          %d\n", sum.Pairs)
	fmt.Fprintf(w, "max roundtrip stretch:   %.3f (scheme bound 6)\n", sum.MaxRoundtripStretch)
	fmt.Fprintf(w, "max induced 1-way stretch: %.3f (s1 <= 2*s2 - 1)\n", sum.MaxOneWayStretch)
	fmt.Fprintf(w, "pairs with roundtrip stretch < 2: %d / %d\n", sum.PairsBelow2, sum.Pairs)
	fmt.Fprintln(w, "\nTheorem 15: with o(n) tables, no TINN roundtrip scheme can keep ALL pairs below 2")
	return nil
}

func runAblation(w io.Writer, n int, seed int64) error {
	fmt.Fprintf(w, "# E10 / §4.4 — cover-variant ablation for polystretch (n=%d, seed=%d)\n\n", n, seed)
	rng := rand.New(rand.NewSource(seed))
	g := rtroute.RandomSC(n, 4*n, 6, rng)
	sys, err := rtroute.NewSystem(g, rtroute.RandomNaming(n, rng))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-28s %8s %8s %10s %10s\n", "variant", "maxS", "meanS", "maxTblW", "avgTblW")
	for _, v := range []struct {
		name string
		cv   rtroute.CoverVariant
		base float64
	}{
		{"awerbuch-peleg base=2", rtroute.CoverAwerbuchPeleg, 2},
		{"ball-growing base=2", rtroute.CoverBallGrowing, 2},
		{"awerbuch-peleg base=1.5", rtroute.CoverAwerbuchPeleg, 1.5},
	} {
		poly, err := sys.Build(rtroute.Polynomial, rtroute.WithK(2), rtroute.WithScaleBase(v.base), rtroute.WithCoverVariant(v.cv))
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		stats, err := rtroute.MeasureScheme(sys, poly, 3000, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		fmt.Fprintf(w, "%-28s %8.3f %8.3f %10d %10.1f\n",
			v.name, stats.Max, stats.Mean, poly.MaxTableWords(), poly.AvgTableWords())
	}
	fmt.Fprintln(w, "\n§4.4: the AP cover keeps whole neighborhoods in one home tree; ball-growing trades radius for overlap")

	fmt.Fprintf(w, "\n# return-trip policy ablations (§2.2 and §3.5 remarks)\n\n")
	fmt.Fprintf(w, "%-28s %8s %8s %10s %10s %10s\n", "scheme variant", "maxS", "meanS", "maxTblW", "avgTblW", "maxHdrW")
	// Sparse block assignments (low boost) make the dictionary path
	// actually fire, so the return-policy variants can diverge.
	sparse := rtroute.BlockOptions{Boost: 1.2}
	variants := []struct {
		name  string
		build func() (rtroute.Scheme, error)
	}{
		{"stretch6", func() (rtroute.Scheme, error) {
			return sys.Build(rtroute.StretchSix, rtroute.WithSeed(seed), rtroute.WithBlocks(sparse))
		}},
		{"stretch6 via-source", func() (rtroute.Scheme, error) {
			return sys.Build(rtroute.StretchSix, rtroute.WithSeed(seed), rtroute.WithBlocks(sparse), rtroute.WithViaSource())
		}},
		{"exstretch k=2", func() (rtroute.Scheme, error) {
			return sys.Build(rtroute.ExStretch, rtroute.WithSeed(seed), rtroute.WithBlocks(sparse))
		}},
		{"exstretch k=2 direct-return", func() (rtroute.Scheme, error) {
			return sys.Build(rtroute.ExStretch, rtroute.WithSeed(seed), rtroute.WithBlocks(sparse), rtroute.WithDirectReturn())
		}},
	}
	for _, v := range variants {
		sch, err := v.build()
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		stats, err := rtroute.MeasureScheme(sys, sch, 3000, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		fmt.Fprintf(w, "%-28s %8.3f %8.3f %10d %10.1f %10d\n",
			v.name, stats.Max, stats.Mean, sch.MaxTableWords(), sch.AvgTableWords(), stats.MaxHeaderWords)
	}
	fmt.Fprintln(w, "\nvia-source lengthens paths; direct-return trades header/stack for global labels")
	return nil
}

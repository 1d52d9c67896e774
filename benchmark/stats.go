package main

import (
	"math"
	"sort"
)

// median returns the median of xs (mean of the two middle values for an
// even count) without reordering the caller's slice; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// spreadMaxMin is a rep list's max/min - 1: the within-run noise figure
// the host-hygiene warning compares against twice a metric's bound.
func spreadMaxMin(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if lo <= 0 {
		return math.Inf(1)
	}
	return hi/lo - 1
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median — the acceptance figure of the builder's
// contract, computed the way Python's statistics.quantiles(xs, n=4)
// does (exclusive method: the i-th cut sits at position i(n+1)/4 of the
// 1-based sorted sample, interpolated linearly between its neighbours).
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		// statistics.quantiles: rescale i to the sample, clamp the
		// position to 1..len-1, and let the exact integer remainder
		// interpolate (or, past an end, extrapolate).
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (cut(3) - cut(1)) / math.Abs(med)
}

// minBeyond is the choosing-metrics rule for tail percentiles: a
// percentile is reported only when at least this many samples lie
// beyond it.
const minBeyond = 10

// highestPercentile picks, from the ladder the reports quote, the
// highest percentile the pooled sample supports — at least minBeyond
// samples strictly beyond it — falling back to the median when even
// p90 is not supported.
func highestPercentile(samples int) float64 {
	for _, q := range []float64{99.9, 99, 95, 90} {
		if float64(samples)*(100-q)/100 >= minBeyond-1e-9 {
			return q
		}
	}
	return 50
}

// percentile returns the q-th percentile (0..100) of an ascending
// sample by the nearest-rank rule, so every reported latency is one
// that was actually observed.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// slotLatencies reconstructs per-roundtrip latency for a closed-loop
// client that keeps `window` roundtrips in flight and issues pairs in
// index order: roundtrip k was due the instant a window slot opened for
// it — the rep start for the first `window`, otherwise the (k-window)-th
// completion in completion order, whose callback freed the slot — and
// its latency runs from then to its own completion. order[j] is the
// pair index of the j-th completion and at[j] its clock reading (ns
// since any fixed origin); start is the rep's start on the same clock.
// The result is indexed by pair. Measuring from the due time, wholly
// outside the client, charges a stall to every roundtrip it delayed.
func slotLatencies(start int64, order []int32, at []int64, window int) []int64 {
	done := make([]int64, len(order))
	for j, k := range order {
		done[k] = at[j]
	}
	lat := make([]int64, len(order))
	for k := range lat {
		due := start
		if k >= window {
			due = at[k-window]
		}
		lat[k] = done[k] - due
	}
	return lat
}

package main

import (
	"runtime"
	"sync"
	"time"
)

// The host is a small shared VM whose cores run anywhere between full
// speed and a third slower for minutes at a time: two sets of ten runs
// of one binary, a quarter of an hour apart, have read 1.53 M and
// 1.95 M rt/s on mono-zipf. Medians over reps deal with bursts; nothing
// inside a run deals with a slow quarter of an hour. So a run also
// times a calibration kernel — a fixed dependent table walk that calls
// nothing in the repository, on every core at once — at every boundary
// between its timed sections, and scales its reported medians by the
// median of those readings: a time is reported as it would read on a
// host doing refSpeed kernel steps per second per core, a rate
// likewise; counts, sizes and ratios are left alone. One factor per
// run, from a dozen readings: scaling each rep by its own two
// neighbours was tried and added as much noise as it removed. The
// factor and the unscaled medians are printed and stored beside the
// scaled ones, so the number the clock gave is never hidden.

// refSpeed is the reference host speed in calibration steps per second
// per core (this host class, unloaded).
const refSpeed = 160e6

const (
	calibTable  = 1 << 16   // uint32 entries: 256 KiB, cache-resident like the n=256 tables
	calibSlices = 5         // a reading is the median of this many back-to-back slices,
	calibSteps  = 2_400_000 // each this long (~15 ms): a burst spoils a slice, not the reading
)

var (
	calibOnce sync.Once
	calibTab  []uint32
	calibSink uint32
)

func calibKernel(tab []uint32, steps int) uint32 {
	x := uint32(1)
	for i := 0; i < steps; i++ {
		x = tab[x&(calibTable-1)] ^ (x*2654435761 + uint32(i))
	}
	return x
}

// calibrate takes one reading of the host's speed, as a fraction of
// refSpeed, and adds it to the run's.
func (r *run) calibrate() {
	calibOnce.Do(func() {
		calibTab = make([]uint32, calibTable)
		x := uint32(2463534242)
		for i := range calibTab {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			calibTab[i] = x
		}
	})
	steps := calibSteps
	if r.wl.toy {
		steps /= 100
	}
	// Finish any collection the last section left running: concurrent
	// marking would share the cores with the kernel and read as a slow
	// host. (It also starts the next section on a swept heap.)
	runtime.GC()
	id := r.tr.begin("calibrate")
	sums := make([]uint32, r.nproc)
	slices := make([]float64, calibSlices)
	for i := range slices {
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < r.nproc; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sums[w] ^= calibKernel(calibTab, steps)
			}(w)
		}
		wg.Wait()
		slices[i] = float64(steps) / time.Since(t0).Seconds() / refSpeed
	}
	r.tr.end(id)
	for _, s := range sums {
		calibSink ^= s
	}
	r.speeds = append(r.speeds, median(slices))
}

// scaled converts one reading of metric d, taken at the given host
// speed, to the reference host: a time shrinks on a slow host's
// reading, a rate grows, anything else passes through.
func scaled(d metricDef, v, speed float64) float64 {
	switch d.Unit {
	case "s", "ms", "us", "ns":
		return v * speed
	case "1/s":
		return v / speed
	}
	return v
}

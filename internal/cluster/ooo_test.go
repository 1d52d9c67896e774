package cluster

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"rtroute/internal/sim"
	"rtroute/internal/traffic"
	"rtroute/internal/wire"
)

// TestPipelinedTCPMatchesSequential certifies out-of-order completion
// end to end: a client keeps a 256-deep window of tagged roundtrips in
// flight over loopback TCP against a live 2-shard cluster — replies
// coalesced per connection, injects per drained read buffer — accepts
// the completions in whatever order the shards finish them, each tag
// exactly once, and the per-pair totals — and the aggregates built from
// them, including the stretch quantiles — must be exactly the
// sequential single-process tracer's.
func TestPipelinedTCPMatchesSequential(t *testing.T) {
	deps, m := testDeployments(t, 48, 13)
	for _, name := range []string{"stretch6", "rtz"} {
		dep := deps[name]
		n := dep.Graph().N()
		c := startTCPShards(t, dep, 2, func(int) Options { return Options{} }, nil)
		c.serve(t)

		// Enough pairs to wrap the window several times over, from a
		// seeded rng so the run is reproducible.
		pairs := randomPairs(n, 2048, 29)
		completions := make([]int, len(pairs))

		cl := c.dial(t)
		got := &Result{}
		var samples []traffic.Sample
		err := cl.Roundtrips(pairs, 256, func(i int, out, back wire.LegTotals) error {
			completions[i]++
			wOut, wBack, err := sim.RoundtripFlight(dep, pairs[i].Src, pairs[i].Dst, 0)
			if err != nil {
				return err
			}
			if int(out.Hops) != wOut.Hops || out.Weight != wOut.Weight ||
				int(back.Hops) != wBack.Hops || back.Weight != wBack.Weight ||
				int(out.MaxHeaderWords) != wOut.MaxHeaderWords ||
				int(back.MaxHeaderWords) != wBack.MaxHeaderWords {
				t.Fatalf("%s: pair %d (%d->%d): cluster (out %d/%d/%d, back %d/%d/%d) diverges from tracer (out %d/%d/%d, back %d/%d/%d)",
					name, i, pairs[i].Src, pairs[i].Dst,
					out.Hops, out.Weight, out.MaxHeaderWords, back.Hops, back.Weight, back.MaxHeaderWords,
					wOut.Hops, wOut.Weight, wOut.MaxHeaderWords,
					wBack.Hops, wBack.Weight, wBack.MaxHeaderWords)
			}
			got.Packets++
			got.Hops += int64(out.Hops) + int64(back.Hops)
			got.Weight += int64(out.Weight) + int64(back.Weight)
			got.HopHist.Add(int(out.Hops + back.Hops))
			samples = append(samples, traffic.Sample{
				Src: dep.NodeOf(pairs[i].Src), Dst: dep.NodeOf(pairs[i].Dst),
				Weight: out.Weight + back.Weight,
			})
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cl.Close()
		c.stop()

		if got.Packets != int64(len(pairs)) {
			t.Fatalf("%s: %d completions for %d pairs", name, got.Packets, len(pairs))
		}
		for i, k := range completions {
			if k != 1 {
				t.Fatalf("%s: roundtrip tag %d completed %d times, want exactly once", name, i+1, k)
			}
		}
		gotQ, err := traffic.StretchQuantiles(m, samples)
		if err != nil {
			t.Fatal(err)
		}
		// The quantiles must equal those of the same pairs served
		// strictly one at a time.
		var seqSamples []traffic.Sample
		for _, p := range pairs {
			wOut, wBack, err := sim.RoundtripFlight(dep, p.Src, p.Dst, 0)
			if err != nil {
				t.Fatal(err)
			}
			seqSamples = append(seqSamples, traffic.Sample{
				Src: dep.NodeOf(p.Src), Dst: dep.NodeOf(p.Dst),
				Weight: wOut.Weight + wBack.Weight,
			})
		}
		wantQ, err := traffic.StretchQuantiles(m, seqSamples)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotQ, wantQ) {
			t.Fatalf("%s: pipelined stretch quantiles %+v diverge from sequential %+v", name, gotQ, wantQ)
		}
	}
}

// reorderEndpoint is the delivery adversary: it shuffles every batch it
// hands to the shard and randomly holds a suffix back for a later call,
// so frames cross and overtake far more aggressively than loopback TCP
// ever would. It never holds frames while letting a worker block: any
// held frames are returned by the next Recv or TryRecv before the
// underlying (blocking) receive is consulted, and holding only happens
// on calls that return at least one frame to a worker that will call
// again.
type reorderEndpoint struct {
	Transport
	mu   sync.Mutex
	rng  *rand.Rand
	held []InFrame
}

func (r *reorderEndpoint) takeHeld() ([]InFrame, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.held) == 0 {
		return nil, false
	}
	out := r.held
	r.held = nil
	return out, true
}

// scramble shuffles frames and holds back a random suffix (never all of
// them) for a later call.
func (r *reorderEndpoint) scramble(frames []InFrame) []InFrame {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
	if len(frames) > 1 {
		keep := 1 + r.rng.Intn(len(frames))
		r.held = append(r.held, frames[keep:]...)
		frames = frames[:keep]
	}
	return frames
}

func (r *reorderEndpoint) Recv() ([]InFrame, error) {
	if out, ok := r.takeHeld(); ok {
		return out, nil
	}
	frames, err := r.Transport.Recv()
	if err != nil {
		return nil, err
	}
	// Merge whatever else is already queued so the shuffle has
	// something to reorder across.
	for len(frames) < 1024 {
		more, ok, err := r.Transport.TryRecv()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		frames = append(frames, more...)
	}
	return r.scramble(frames), nil
}

func (r *reorderEndpoint) TryRecv() ([]InFrame, bool, error) {
	if out, ok := r.takeHeld(); ok {
		return out, true, nil
	}
	frames, ok, err := r.Transport.TryRecv()
	if err != nil || !ok {
		return nil, ok, err
	}
	return r.scramble(frames), true, nil
}

// TestClusterSurvivesReorderingAdversary re-runs the tentpole
// certification with the adversary spliced into every fabric worker's
// endpoint — at the two-core grouping and with every partition on its
// own worker: aggressive cross-batch reordering must not change a single
// aggregate, because roundtrip identity travels in the frames, not in
// delivery order.
func TestClusterSurvivesReorderingAdversary(t *testing.T) {
	deps, m := testDeployments(t, 64, 7)
	for name, dep := range deps {
		for _, w := range []int{2, 8} {
			cfg := Config{
				Shards: 8, Packets: 2000,
				Workload: traffic.Spec{Kind: traffic.Zipf, ZipfTheta: 0.9},
				Seed:     11, Oracle: m, SampleEvery: 3, InFlight: 64, Batch: 16,
				fabricWorkers: w,
				wrapEndpoint: func(shard int, tr Transport) Transport {
					return &reorderEndpoint{Transport: tr, rng: rand.New(rand.NewSource(int64(100 + shard)))}
				},
			}
			got, err := Run(dep, cfg)
			if err != nil {
				t.Fatalf("%s W=%d: %v", name, w, err)
			}
			want := replay(t, dep, cfg)
			if got.Packets != want.Packets || got.Hops != want.Hops || got.Weight != want.Weight {
				t.Fatalf("%s W=%d: totals (packets,hops,weight) = (%d,%d,%d), replay (%d,%d,%d)",
					name, w, got.Packets, got.Hops, got.Weight, want.Packets, want.Hops, want.Weight)
			}
			if !reflect.DeepEqual(got.HopHist, want.HopHist) || !reflect.DeepEqual(got.HdrHist, want.HdrHist) {
				t.Fatalf("%s W=%d: histograms diverge from sequential replay under reordering", name, w)
			}
			if got.Sampled != want.Sampled || !reflect.DeepEqual(got.Stretch, want.Stretch) {
				t.Fatalf("%s W=%d: stretch quantiles %+v over %d samples, replay %+v over %d",
					name, w, got.Stretch, got.Sampled, want.Stretch, want.Sampled)
			}
		}
	}
}

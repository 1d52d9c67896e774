package rtroute

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"rtroute/internal/cluster"
)

// TestClusterChurnMatchesSequential is the tentpole certification: a
// fabric of 8, 2 and 1 shards absorbs seeded churn while serving —
// events ride the wire as churn frames, every shard orders each batch
// and applies it between two served batches, and the last to arrive repairs the fabric's one replica on
// every core, with roundtrips in flight — and after every batch the
// fabric's tables are bit-identical to a reference replica repaired
// sequentially (and, transitively, to a from-scratch build), the
// accounting identity holds exactly (zero hung roundtrips), and the
// post-repair stable window's hop and weight totals equal a sequential
// replay on the reference plane. The one-shard rows are the monolithic
// churn loop (no crossings, a rendezvous of one) through the same
// driver. All five plane kinds, under -race.
func TestClusterChurnMatchesSequential(t *testing.T) {
	kinds := []struct {
		name string
		kind SchemeKind
	}{
		{"stretch6", StretchSix},
		{"exstretch", ExStretch},
		{"poly", Polynomial},
		{"rtz", RTZStretch3},
		{"hop", HopSubstrate},
	}
	fabrics := []struct {
		name   string
		shards int
	}{
		{"shards=8", 8},
		{"shards=2", 2},
		{"shards=1", 1},
	}
	for _, tc := range kinds {
		t.Run(tc.name, func(t *testing.T) {
			for _, fab := range fabrics {
				t.Run(fab.name, func(t *testing.T) {
					const n = 40
					sys := churnSystem(t, n, 0xE19+int64(tc.kind))
					res, err := RunChurnCluster(sys, ChurnClusterConfig{
						Kind:           tc.kind,
						Build:          BuildConfig{Seed: 7},
						Shards:         fab.shards,
						ChurnSeed:      901 + int64(tc.kind),
						Batches:        3,
						EventsPerBatch: 3,
						FirePackets:    300,
						StablePackets:  300,
						InFlight:       64,
						Certify:        true,
					})
					if err != nil {
						t.Fatalf("RunChurnCluster: %v", err)
					}
					if res.Issued != res.Served+res.Drops+res.Misroutes {
						t.Fatalf("accounting identity broken: issued %d != served %d + drops %d + misroutes %d",
							res.Issued, res.Served, res.Drops, res.Misroutes)
					}
					if want := int64(fab.shards * 3); res.Repairs != want {
						t.Fatalf("repairs = %d, want %d (shards x batches)", res.Repairs, want)
					}
					if !res.Certified {
						t.Fatalf("result not certified")
					}
					if len(res.BatchRows) != 3 {
						t.Fatalf("%d batch rows, want 3", len(res.BatchRows))
					}
					for _, row := range res.BatchRows {
						if row.FireIssued != row.FireServed+row.FireDrops+row.FireMisroutes {
							t.Fatalf("batch %d: fire accounting broken: %d != %d+%d+%d",
								row.Batch, row.FireIssued, row.FireServed, row.FireDrops, row.FireMisroutes)
						}
						if row.Dirty == 0 {
							t.Fatalf("batch %d: empty dirty set for %d events", row.Batch, row.Events)
						}
						if rr := row.RefRepair; rr.RebuiltTables == 0 && rr.RebuiltTrees == 0 && rr.ChangedLabels == 0 {
							t.Fatalf("batch %d: reference repair of %d dirty nodes reports no work", row.Batch, row.Dirty)
						}
						if ref, fab := counters(row.RefRepair), counters(row.FabricRepair); !reflect.DeepEqual(ref, fab) {
							t.Fatalf("batch %d: fabric repaired %+v, reference %+v", row.Batch, fab, ref)
						}
					}
				})
			}
		})
	}
}

// ccReorderEndpoint is the delivery adversary from the PR 6
// certification, re-aimed at the churn path: it shuffles every batch it
// hands to the shard and randomly holds a suffix back for a later call,
// so churn frames overtake and trail roundtrip frames far more
// aggressively than any real transport. Held frames are always returned
// by the next Recv or TryRecv before the underlying blocking receive is
// consulted, so no shard ever blocks on held traffic.
type ccReorderEndpoint struct {
	cluster.Transport
	mu   sync.Mutex
	rng  *rand.Rand
	held []cluster.InFrame
}

func (r *ccReorderEndpoint) takeHeld() ([]cluster.InFrame, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.held) == 0 {
		return nil, false
	}
	out := r.held
	r.held = nil
	return out, true
}

func (r *ccReorderEndpoint) scramble(frames []cluster.InFrame) []cluster.InFrame {
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

func (r *ccReorderEndpoint) Recv() ([]cluster.InFrame, error) {
	if out, ok := r.takeHeld(); ok {
		return out, nil
	}
	frames, err := r.Transport.Recv()
	if err != nil {
		return nil, err
	}
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

func (r *ccReorderEndpoint) TryRecv() ([]cluster.InFrame, bool, error) {
	if out, ok := r.takeHeld(); ok {
		return out, true, nil
	}
	frames, ok, err := r.Transport.TryRecv()
	if err != nil || !ok {
		return nil, ok, err
	}
	return r.scramble(frames), true, nil
}

// TestClusterChurnUnderReorderingAdversary re-runs the churn
// certification with the adversary spliced into every shard's endpoint:
// aggressive reordering of churn frames against in-flight roundtrips
// must not change a single certified outcome, because each shard
// applies repairs between served batches, in sequence order regardless
// of delivery order.
func TestClusterChurnUnderReorderingAdversary(t *testing.T) {
	kinds := []struct {
		name string
		kind SchemeKind
	}{
		{"stretch6", StretchSix},
		{"rtz", RTZStretch3},
	}
	for _, tc := range kinds {
		t.Run(tc.name, func(t *testing.T) {
			const n = 40
			sys := churnSystem(t, n, 0xADE+int64(tc.kind))
			res, err := RunChurnCluster(sys, ChurnClusterConfig{
				Kind:           tc.kind,
				Build:          BuildConfig{Seed: 11},
				Shards:         8,
				ChurnSeed:      333 + int64(tc.kind),
				Batches:        3,
				EventsPerBatch: 3,
				FirePackets:    300,
				StablePackets:  300,
				InFlight:       64,
				Certify:        true,
				wrapEndpoint: func(shard int, tr cluster.Transport) cluster.Transport {
					return &ccReorderEndpoint{Transport: tr, rng: rand.New(rand.NewSource(int64(100 + shard)))}
				},
			})
			if err != nil {
				t.Fatalf("RunChurnCluster under reordering: %v", err)
			}
			if res.Issued != res.Served+res.Drops+res.Misroutes {
				t.Fatalf("accounting identity broken under reordering: issued %d != served %d + drops %d + misroutes %d",
					res.Issued, res.Served, res.Drops, res.Misroutes)
			}
			if want := int64(8 * 3); res.Repairs != want {
				t.Fatalf("repairs = %d, want %d", res.Repairs, want)
			}
		})
	}
}

// TestClusterChurnRepairFailureSurfaces: when the fabric's one repair
// fails — here on the second batch, after every shard has stopped
// serving to reach the rendezvous — every shard must come back from the
// rendezvous with that error and poison itself, and RunChurnCluster must
// return it promptly (far inside the driver's 60 s hang deadline) with
// every serving loop joined and no goroutine left behind.
func TestClusterChurnRepairFailureSurfaces(t *testing.T) {
	sys := churnSystem(t, 40, 0xFA11)
	boom := errors.New("injected repair failure")
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := RunChurnCluster(sys, ChurnClusterConfig{
			Kind: StretchSix, Build: BuildConfig{Seed: 7}, Shards: 4, ChurnSeed: 901,
			Batches: 3, EventsPerBatch: 2, FirePackets: 300, StablePackets: 300, InFlight: 64,
			failRepair: func(seq uint64) error {
				if seq == 2 {
					return boom
				}
				return nil
			},
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("RunChurnCluster returned %v, want the injected repair failure", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("RunChurnCluster still running 5 s after a failed repair: shards stranded at the rendezvous")
	}
	// RunChurnCluster joins its serving loops before returning; anything
	// still winding down is gone within a few scheduler turns.
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines before the run, %d after it returned", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

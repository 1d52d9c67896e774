package parallel

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachVisitsAll(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		var visited [100]int32
		err := ForEach(100, workers, func(i int) error {
			atomic.AddInt32(&visited[i], 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range visited {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	err := ForEach(50, 4, func(i int) error {
		if i == 17 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
}

func TestForEachZeroItems(t *testing.T) {
	called := false
	if err := ForEach(0, 4, func(i int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestForEachSequentialFallbackStopsEarly(t *testing.T) {
	boom := errors.New("stop")
	count := 0
	err := ForEach(100, 1, func(i int) error {
		count++
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || count != 6 {
		t.Fatalf("sequential mode: err=%v count=%d", err, count)
	}
}

// TestForEachStopsFeedingAfterError counts the calls that start after
// the failing one returned. Before the pool stopped feeding, that was
// every remaining index; now it is at most the calls already claimed,
// plus one per worker that read the flag just before it was set. Calls
// that see the failure sleep, so even a descheduled failing worker
// cannot let the others run through a tenth of the range.
func TestForEachStopsFeedingAfterError(t *testing.T) {
	const n, failAt, workers = 20000, 17, 4
	boom := errors.New("boom")
	var returned atomic.Bool
	var after atomic.Int64
	err := ForEach(n, workers, func(i int) error {
		if i == failAt {
			returned.Store(true)
			return boom
		}
		if returned.Load() {
			after.Add(1)
			time.Sleep(100 * time.Microsecond)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if got := after.Load(); got > n/10 {
		t.Fatalf("%d calls started after index %d failed; the pool kept feeding", got, failAt)
	}
}

func TestForEachWorkerIndexIsExclusive(t *testing.T) {
	const n, workers = 5000, 4
	var busy [workers]atomic.Int32
	var visited [n]int32
	err := ForEachWorker(n, workers, func(w, i int) error {
		if w < 0 || w >= workers {
			t.Errorf("worker index %d outside [0,%d)", w, workers)
			return nil
		}
		if busy[w].Add(1) != 1 {
			t.Errorf("two calls overlap on worker %d", w)
		}
		atomic.AddInt32(&visited[i], 1)
		busy[w].Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range visited {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

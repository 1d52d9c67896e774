// Package parallel provides the small worker-pool helper the scheme
// builders use to parallelize their per-node preprocessing loops (each
// node's table depends only on read-only shared state).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count argument against n items: workers <= 0
// selects GOMAXPROCS, and the pool never exceeds n.
func Workers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// ForEach invokes fn(i) for i in [0, n) across a pool of workers.
// workers <= 0 selects GOMAXPROCS. fn calls for distinct i may run
// concurrently; callers must ensure per-i writes are disjoint. The first
// error is returned after all workers drain; once one is recorded no
// further index is started.
func ForEach(n, workers int, fn func(i int) error) error {
	return ForEachWorker(n, workers, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEach whose fn also receives the index w in
// [0, Workers(n, workers)) of the goroutine running it, so callers can
// keep per-worker scratch (one encoder, one slot table) without locking:
// calls with the same w never overlap.
func ForEachWorker(n, workers int, fn func(w, i int) error) error {
	workers = Workers(n, workers)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

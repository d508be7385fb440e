// Package par is the bounded worker pool under the exploration sweep: the
// per-period solves of internal/explore are independent given isolated
// mutable state, so they fan out through it. The single retiming solve is
// serial — no intra-solve stage ever measured faster on a worker pool.
//
// The contract every caller relies on:
//
//   - Determinism. Work items are identified by index and results land in
//     index-addressed slots owned by exactly one item, so the output of a
//     parallel run is bit-identical to the serial one regardless of worker
//     count or scheduling.
//   - Bounded workers. At most Workers(n) goroutines run; requests ≤ 1 (and
//     single-item runs) execute inline on the caller's goroutine with no
//     channel or goroutine overhead.
//   - Cancellation. The context is polled between work items; the first
//     error (or the context's) stops the pool and is returned.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested parallelism degree: values ≤ 0 mean
// runtime.GOMAXPROCS(0); the result is always ≥ 1.
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// Run executes fn(worker, item) for every item in [0, items), distributing
// items dynamically over min(workers, items) goroutines. Item indices are
// handed out through an atomic counter, so long and short items balance; the
// caller must ensure distinct items touch disjoint state (typically: item i
// owns slot i of a result slice).
//
// The context is polled before every item. The first error — fn's or the
// context's — stops the pool; Run returns it after all workers have parked.
// With workers ≤ 1 or items ≤ 1 everything runs inline on the calling
// goroutine.
func Run(ctx context.Context, workers, items int, fn func(worker, item int) error) error {
	if items <= 0 {
		return ctx.Err()
	}
	if workers > items {
		workers = items
	}
	if workers <= 1 {
		for i := 0; i < items; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next int64 // next item to hand out
		wg   sync.WaitGroup
		mu   sync.Mutex
		ferr error
	)
	fail := func(err error) {
		mu.Lock()
		if ferr == nil {
			ferr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return ferr != nil
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				if failed() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= items {
					return
				}
				if err := fn(worker, i); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return ferr
}

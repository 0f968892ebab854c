// Package par provides the simulator's one concurrency primitive: a
// deterministic fan-out over an index range, bounded by GOMAXPROCS.
//
// Simulations in this repository are single-threaded and deterministic per
// run; wall-clock parallelism comes from running many independent
// simulations at once. par.For is that fan-out: results are written into
// index i's slot regardless of which worker ran it, so output order (and
// therefore every derived report) is identical to a serial loop.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs f(i) for every i in [0, n), using up to runtime.GOMAXPROCS(0)
// workers. Every index runs (an error does not cancel the rest), and the
// lowest-index error is returned — the same error a serial loop would have
// surfaced first.
func For(n int, f func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = f(i)
		}
	} else {
		var next int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(atomic.AddInt64(&next, 1)) - 1
					if i >= n {
						return
					}
					errs[i] = f(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

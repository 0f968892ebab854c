// Package par provides the small worker-pool primitive the simulator's
// parallel harness is built on: a deterministic fan-out over an index range,
// bounded by GOMAXPROCS.
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

// Pool is a persistent worker pool for repeated fan-outs. Where For spawns
// fresh goroutines per call, a Pool keeps its workers parked between calls,
// so a tight synchronization loop (the sharded simulator runs one fan-out
// per lookahead window) pays only channel handoffs per round. A pool with
// one worker runs every call inline on the caller — under GOMAXPROCS=1 the
// sharded engine degrades to a plain serial loop.
type Pool struct {
	workers int
	jobs    chan poolJob
}

type poolJob struct {
	n    int
	next *int64
	f    func(i int)
	wg   *sync.WaitGroup
}

// NewPool starts a pool with the given number of workers; workers <= 0 means
// runtime.GOMAXPROCS(0). Close must be called to release the workers.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.jobs = make(chan poolJob)
		for w := 0; w < workers; w++ {
			go func() {
				for j := range p.jobs {
					for {
						i := int(atomic.AddInt64(j.next, 1)) - 1
						if i >= j.n {
							break
						}
						j.f(i)
					}
					j.wg.Done()
				}
			}()
		}
	}
	return p
}

// Run executes f(i) for every i in [0, n) and returns when all calls have
// finished. Indexes are claimed atomically, so slot i's effects land in
// slot i regardless of which worker ran it. With one worker (or n == 1) the
// calls run inline on the caller's goroutine.
func (p *Pool) Run(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	fan := p.workers
	if fan > n {
		fan = n
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(fan)
	job := poolJob{n: n, next: &next, f: f, wg: &wg}
	for i := 0; i < fan; i++ {
		p.jobs <- job
	}
	wg.Wait()
}

// Close releases the pool's workers. The pool must not be used afterwards.
func (p *Pool) Close() {
	if p != nil && p.jobs != nil {
		close(p.jobs)
	}
}

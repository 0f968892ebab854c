//go:build !race

package serving

import (
	"runtime"
	"testing"
	"time"

	"olympian/internal/model"
	"olympian/internal/overload"
	"olympian/internal/sim"
)

// batchAllocBudget bounds the heap allocations one batch costs a server
// beyond its requests' own records. It sits just above the measured 1.00
// (go1.24): the batch proc. The batch record, its rider slice, stream and
// executor job, the gang's WaitGroup and Semaphore, the scheduler's job
// record and Cond, and the proc's closure are all reused; allocating them
// per batch made 16.00.
const batchAllocBudget = 1.2

// TestBatchAllocBudget serves evenly spaced model.Micro arrivals through one
// server at two lengths and charges the difference in allocations, less one
// Request per extra request, to the extra batches, so construction,
// profiling and the first batches cancel out.
func TestBatchAllocBudget(t *testing.T) {
	const short, long = 2000, 6000
	// A first run pays the process-wide one-time costs (the model graph
	// cache, the pooled proc carriers) so neither measured run does.
	serverAllocs(t, short)
	allocsShort, batchesShort := serverAllocs(t, short)
	allocsLong, batchesLong := serverAllocs(t, long)
	per := (allocsLong - allocsShort - float64(long-short)) / float64(batchesLong-batchesShort)
	t.Logf("%.2f allocs/batch over %d batches", per, batchesLong-batchesShort)
	if per > batchAllocBudget {
		t.Fatalf("a batch makes %.2f allocs beyond its requests, budget %.1f", per, batchAllocBudget)
	}
}

// serverAllocs returns the heap allocations a run of n requests makes on an
// Olympian-scheduled server, from building it to its stats, and the batches
// it dispatched.
func serverAllocs(t *testing.T, n int) (float64, int) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{UseOlympian: true, MaxBatch: 8, BatchTimeout: 2 * time.Millisecond}, env.Rand())
	env.ScheduleTrain(n, every(100*time.Microsecond), func() {
		if _, err := srv.SubmitClass(model.Micro, overload.Interactive); err != nil {
			t.Errorf("submit: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	runtime.ReadMemStats(&after)
	env.Shutdown()
	if st.Completed != n {
		t.Fatalf("%d requests: %d completed", n, st.Completed)
	}
	return float64(after.Mallocs - before.Mallocs), st.Batches
}

// TestDrainQueuedAllocsZero fills two models' queues from caller-held
// records and drains them, over and over: once the batchers exist and the
// queue arrays have grown, a submit-and-drain cycle allocates nothing, and
// no queue array keeps a drained request.
func TestDrainQueuedAllocsZero(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{MaxBatch: 32, BatchTimeout: time.Hour}, env.Rand())
	reqs := make([]Request, 8)
	cycle := func() {
		for i := range reqs {
			m := model.AlexNet
			if i%2 == 1 {
				m = model.ResNet50
			}
			if err := srv.Submit(&reqs[i], m, overload.Interactive); err != nil {
				t.Fatal(err)
			}
		}
		if n := srv.DrainQueued(); n != len(reqs) {
			t.Fatalf("drained %d of %d", n, len(reqs))
		}
	}
	cycle() // starts the batchers and grows the arrays
	if a := testing.AllocsPerRun(20, cycle); a != 0 {
		t.Errorf("a submit-and-drain cycle of %d requests makes %.1f allocs, want 0", len(reqs), a)
	}
	for _, q := range [][]*Request{srv.byName[model.AlexNet].queue, srv.byName[model.ResNet50].queue, srv.spare} {
		for _, r := range q[:cap(q)] {
			if r != nil {
				t.Fatalf("a queue array still holds drained request %d", r.ID)
			}
		}
	}
	env.Shutdown()
}

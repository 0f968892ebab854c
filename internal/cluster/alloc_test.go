//go:build !race

package cluster_test

import (
	"runtime"
	"testing"
	"time"

	"olympian/internal/cluster"
	"olympian/internal/gpu"
	"olympian/internal/invariant"
	"olympian/internal/model"
	"olympian/internal/overload"
)

// requestAllocBudget bounds the heap allocations one request costs on the
// sharded fleet's steady path: routing, the submit and report messages, the
// device agent's drain, serving's admission and batching, and the batch's
// share of the executor, scheduler and GPU work. It sits just above the
// measured 4.11 (go1.24); with a per-device agent process, a capturing
// closure per message and fmt in the decision hash the same run made 14.87.
const requestAllocBudget = 4.5

// TestShardedRequestAllocBudget runs a 2-device fleet of model.Micro at
// two lengths and charges the difference in allocations to the extra
// requests, so construction, profiling and the first batches cancel out.
// Arrivals are evenly spaced, so every batch past the first few has the same
// size in both runs.
func TestShardedRequestAllocBudget(t *testing.T) {
	const short, long = 2000, 6000
	per := (fleetAllocs(t, long) - fleetAllocs(t, short)) / float64(long-short)
	t.Logf("%.2f allocs/request", per)
	if per > requestAllocBudget {
		t.Fatalf("sharded request path makes %.2f allocs/request, budget %.1f", per, requestAllocBudget)
	}
}

// fleetAllocs returns the heap allocations a run of n requests makes, from
// building the fleet to its audited stats.
func fleetAllocs(t *testing.T, n int) float64 {
	t.Helper()
	cfg := cluster.Config{
		Seed:         1,
		Devices:      []gpu.Spec{gpu.GTX1080Ti, gpu.GTX1080Ti},
		Route:        cluster.LeastOutstanding,
		MaxBatch:     8,
		BatchTimeout: 2 * time.Millisecond,
	}
	i := 0
	next := func() invariant.Arrival {
		i++
		return invariant.Arrival{At: time.Duration(i) * 100 * time.Microsecond, Model: model.Micro, Class: overload.Interactive}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := cluster.NewSharded(cfg, cluster.Sharded)
	if err != nil {
		t.Fatal(err)
	}
	st, vs, err := invariant.DriveSharded(c, n, next, "alloc")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) > 0 || st.Completed != n {
		t.Fatalf("%d requests: %d completed, violations %v", n, st.Completed, vs)
	}
	return float64(after.Mallocs - before.Mallocs)
}

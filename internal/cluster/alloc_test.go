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
// measured 1.23 (go1.24): the caller's ShardedRequest, the batch's proc and
// the run's one-time costs spread over the extra requests. A serving.Request
// allocated per attempt made 2.23; allocating the batch record, executor
// job, gang primitives and scheduler state per batch as well made 3.98, and
// with a per-device agent process, a capturing closure per message and fmt
// in the decision hash the same run made 14.87.
const requestAllocBudget = 1.3

// hedgedRequestAllocBudget bounds the same cost with hedging, deadlines and
// a bounded queue on. It sits just above the measured 1.95 (go1.24), where
// 78% of the requests hedge and each hedge's losing attempt costs the
// closure of its cancel message. A capturing closure per hedge timer, fresh
// exclude and candidate lists per hedge, a serving.Request per attempt and
// a queue that regrew after every drain made 6.39.
const hedgedRequestAllocBudget = 2.1

// TestShardedRequestAllocBudget runs a 2-device fleet of model.Micro at
// two lengths and charges the difference in allocations to the extra
// requests, so construction, profiling and the first batches cancel out.
// Arrivals are evenly spaced, so every batch past the first few has the same
// size in both runs.
func TestShardedRequestAllocBudget(t *testing.T) {
	per, _ := perRequestAllocs(t, nil)
	t.Logf("%.2f allocs/request", per)
	if per > requestAllocBudget {
		t.Fatalf("sharded request path makes %.2f allocs/request, budget %.1f", per, requestAllocBudget)
	}
}

// TestHedgedRequestAllocBudget is TestShardedRequestAllocBudget with
// HedgeDelay, Deadline and MaxQueue set: requests that wait past the hedge
// delay in a filling batch race a duplicate on the other device, and the
// loser is cancelled. The deadline and queue bound are loose enough that
// every request completes.
func TestHedgedRequestAllocBudget(t *testing.T) {
	per, hedges := perRequestAllocs(t, func(cfg *cluster.Config) {
		cfg.HedgeDelay = time.Millisecond
		cfg.Deadline = 50 * time.Millisecond
		cfg.MaxQueue = 64
	})
	t.Logf("%.2f allocs/request, %d extra requests hedged", per, hedges)
	if hedges == 0 {
		t.Fatal("no extra request hedged: the hedge path went unmeasured")
	}
	if per > hedgedRequestAllocBudget {
		t.Fatalf("hedged request path makes %.2f allocs/request, budget %.1f", per, hedgedRequestAllocBudget)
	}
}

// perRequestAllocs runs fleetAllocs at two lengths and returns the
// allocations each extra request costs and how many extra requests hedged.
func perRequestAllocs(t *testing.T, tweak func(*cluster.Config)) (float64, int) {
	t.Helper()
	const short, long = 2000, 6000
	allocsLong, stLong := fleetAllocs(t, long, tweak)
	allocsShort, stShort := fleetAllocs(t, short, tweak)
	return (allocsLong - allocsShort) / float64(long-short), stLong.Hedges - stShort.Hedges
}

// fleetAllocs returns the heap allocations a run of n requests makes, from
// building the fleet to its audited stats, and those stats. tweak, when
// non-nil, adjusts the fleet's config first.
func fleetAllocs(t *testing.T, n int, tweak func(*cluster.Config)) (float64, cluster.Stats) {
	t.Helper()
	cfg := cluster.Config{
		Seed:         1,
		Devices:      []gpu.Spec{gpu.GTX1080Ti, gpu.GTX1080Ti},
		Route:        cluster.LeastOutstanding,
		MaxBatch:     8,
		BatchTimeout: 2 * time.Millisecond,
	}
	if tweak != nil {
		tweak(&cfg)
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
	return float64(after.Mallocs - before.Mallocs), st
}

// llmRequestAllocBudget bounds the heap allocations one request costs the
// disaggregated LLM fleet: routing, the prefill attempt, the KV hand-off,
// the decode attempt and settlement. It sits just above the measured 1.00
// (go1.24): the caller's LLMRequest. A device-side request per attempt and
// a ready set that reallocated as it drained made 5.00; a pending-ingest
// slice that reallocated whenever it drained made 2.00.
const llmRequestAllocBudget = 1.2

// TestLLMRequestAllocBudget runs a 1+1 LLM fleet at two lengths and charges
// the difference in allocations to the extra requests, so construction,
// profiling and the first attempt blocks cancel out. Arrivals are evenly
// spaced and every request has the same dimensions.
func TestLLMRequestAllocBudget(t *testing.T) {
	const short, long = 1000, 3000
	per := (llmFleetAllocs(t, long) - llmFleetAllocs(t, short)) / float64(long-short)
	t.Logf("%.2f allocs/request", per)
	if per > llmRequestAllocBudget {
		t.Fatalf("llm request path makes %.2f allocs/request, budget %.1f", per, llmRequestAllocBudget)
	}
}

// llmFleetAllocs returns the heap allocations a run of n requests makes,
// from building the fleet to its audited stats.
func llmFleetAllocs(t *testing.T, n int) float64 {
	t.Helper()
	cfg := cluster.LLMConfig{Seed: 1, Model: model.LLMTiny, PrefillReplicas: 1, DecodeReplicas: 1}
	i := 0
	next := func() invariant.Arrival {
		i++
		return invariant.Arrival{At: time.Duration(i) * 500 * time.Microsecond, Class: overload.Interactive, Prompt: 64, Output: 16}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := cluster.NewLLM(cfg, cluster.Sharded)
	if err != nil {
		t.Fatal(err)
	}
	st, vs, err := invariant.DriveLLM(c, n, next, "alloc")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) > 0 || st.Completed != n {
		t.Fatalf("%d requests: %d completed, violations %v", n, st.Completed, vs)
	}
	return float64(after.Mallocs - before.Mallocs)
}

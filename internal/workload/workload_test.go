package workload

import (
	"testing"
	"time"

	"olympian/internal/core"
	"olympian/internal/faults"
	"olympian/internal/gpu"
	"olympian/internal/model"
	"olympian/internal/profiler"
)

func smallClients(n, batches int) []ClientSpec {
	clients := make([]ClientSpec, n)
	for i := range clients {
		clients[i] = ClientSpec{Model: model.Inception, Batch: 40, Batches: batches}
	}
	return clients
}

func TestRunVanilla(t *testing.T) {
	res, err := Run(Config{Seed: 1, Kind: Vanilla}, smallClients(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Finishes.Records) != 3 {
		t.Fatalf("%d finishes", len(res.Finishes.Records))
	}
	if res.Switches != 0 || len(res.Quanta) != 0 {
		t.Fatal("vanilla must not record scheduler activity")
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Fatalf("utilization %v", res.Utilization)
	}
	if res.SMEfficiency <= 0 || res.SMEfficiency > res.Utilization+1e-9 {
		t.Fatalf("SM efficiency %v vs utilization %v", res.SMEfficiency, res.Utilization)
	}
}

func TestRunOlympianProfilesOnTheFly(t *testing.T) {
	res, err := Run(Config{Seed: 1, Kind: Olympian}, smallClients(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches == 0 || len(res.Quanta) == 0 {
		t.Fatal("olympian run recorded no scheduling activity")
	}
	if s := res.Finishes.Summary(); s.Spread() > 1.02 {
		t.Fatalf("olympian spread %.3f", s.Spread())
	}
}

func TestRunUsesSharedProfiles(t *testing.T) {
	cache := profiler.NewStore()
	refs := []ModelRef{{Model: model.Inception, Batch: 40}}
	if err := Profile(cache, refs, gpu.GTX1080Ti, 1); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache size %d", cache.Len())
	}
	first, _ := cache.Get(refs[0].Key())
	// Re-profiling the same ref is a no-op.
	if err := Profile(cache, refs, gpu.GTX1080Ti, 2); err != nil {
		t.Fatal(err)
	}
	if again, _ := cache.Get(refs[0].Key()); again != first {
		t.Fatal("re-profiling replaced the cached profile")
	}
	res, err := Run(Config{Seed: 1, Kind: Olympian, Profiles: cache}, smallClients(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches == 0 {
		t.Fatal("no switches with cached profiles")
	}
}

func TestRunRejectsEmptyAndUnknown(t *testing.T) {
	if _, err := Run(Config{}, nil); err == nil {
		t.Fatal("expected error for empty client set")
	}
	if _, err := Run(Config{}, []ClientSpec{{Model: "bogus", Batch: 10}}); err == nil {
		t.Fatal("expected error for unknown model")
	}
	if _, err := Run(Config{Kind: SchedulerKind(99)}, smallClients(1, 1)); err == nil {
		t.Fatal("expected error for unknown scheduler kind")
	}
}

func TestArrivalOffsets(t *testing.T) {
	clients := smallClients(2, 1)
	clients[1].ArriveAt = 50 * time.Millisecond
	res, err := Run(Config{Seed: 1, Kind: Vanilla}, clients)
	if err != nil {
		t.Fatal(err)
	}
	durs := res.Finishes.Durations()
	if durs[1] <= durs[0] {
		t.Fatalf("late arrival should finish later: %v", durs)
	}
}

func TestWeightsAndPrioritiesPropagate(t *testing.T) {
	clients := smallClients(4, 2)
	clients[0].Weight = 4
	clients[1].Weight = 4
	res, err := Run(Config{
		Seed: 1, Kind: Olympian, Policy: core.NewWeightedFair(),
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Finishes.Durations()
	if d[0] >= d[2] {
		t.Fatalf("weighted client not favoured: %v", d)
	}
}

func TestMaxVirtualGuard(t *testing.T) {
	// An absurdly small budget must abort rather than hang.
	_, err := Run(Config{Seed: 1, Kind: Vanilla, MaxVirtual: time.Millisecond}, smallClients(2, 1))
	if err == nil {
		t.Fatal("expected over-budget error")
	}
}

func TestWallClockKindRotates(t *testing.T) {
	res, err := Run(Config{Seed: 1, Kind: WallClockSlicing}, smallClients(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches == 0 {
		t.Fatal("cpu-timer mode made no switches")
	}
}

func TestSchedulerKindString(t *testing.T) {
	if Vanilla.String() != "tf-serving" || Olympian.String() != "olympian" || WallClockSlicing.String() != "cpu-timer" {
		t.Fatal("scheduler kind names changed")
	}
}

// Failure injection: thread-pool starvation.

func TestThreadPoolExhaustionFailsFast(t *testing.T) {
	// Olympian on a starved thread pool must surface a deadlock error from
	// the run, not hang: suspended gangs hold all workers.
	clients := make([]ClientSpec, 6)
	for i := range clients {
		clients[i] = ClientSpec{Model: model.Inception, Batch: 60, Batches: 1}
	}
	_, err := Run(Config{
		Seed:           1,
		Kind:           Olympian,
		ThreadPoolSize: 24,
	}, clients)
	if err == nil {
		t.Fatal("expected a deadlock/stall error on a starved pool")
	}
}

func TestVanillaSurvivesStarvedPool(t *testing.T) {
	// The same starved pool under vanilla TF-Serving only delays work.
	clients := make([]ClientSpec, 6)
	for i := range clients {
		clients[i] = ClientSpec{Model: model.Inception, Batch: 60, Batches: 1}
	}
	res, err := Run(Config{
		Seed:           1,
		Kind:           Vanilla,
		ThreadPoolSize: 24,
	}, clients)
	if err != nil {
		t.Fatalf("vanilla should drain a starved pool: %v", err)
	}
	if res.Pool.Delayed == 0 {
		t.Fatal("expected delayed submissions on a starved pool")
	}
}

func TestQueueOnMemoryAdmitsEventually(t *testing.T) {
	// 60 clients against a ~46-client device: with queueing, everyone is
	// eventually served; nobody fails.
	clients := make([]ClientSpec, 60)
	for i := range clients {
		clients[i] = ClientSpec{Model: model.Inception, Batch: 100, Batches: 1}
	}
	res, err := Run(Config{
		Seed: 1, Kind: Vanilla,
		ReserveMemory: true, QueueOnMemory: true,
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailedClients) != 0 {
		t.Fatalf("%d clients failed despite queueing", len(res.FailedClients))
	}
	if len(res.Finishes.Records) != 60 {
		t.Fatalf("%d clients finished, want 60", len(res.Finishes.Records))
	}
}

func TestRunWithFaultsIsDeterministic(t *testing.T) {
	plan := &faults.Plan{KernelFailRate: 0.05, AbortRate: 0.0005}
	for _, gpus := range []int{1, 2} {
		run := func() *Result {
			res, err := Run(Config{Seed: 11, Kind: Olympian, Faults: plan, GPUs: gpus}, smallClients(3, 2))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a := run()
		if a.Degraded.KernelFaults == 0 {
			t.Fatalf("%d GPUs: no kernel faults injected at a 5%% rate", gpus)
		}
		if a.Degraded.KernelRetries == 0 {
			t.Fatalf("%d GPUs: no kernel retries despite injected faults", gpus)
		}
		if gpus > 1 && a.Degraded.KernelFaults == a.Device.KernelFaults {
			t.Fatalf("%d GPUs: every fault hit device 0 (%d); the others have no injector", gpus, a.Device.KernelFaults)
		}
		if len(a.Finishes.Records) != 3 {
			t.Fatalf("%d GPUs: %d finishes, want all clients to complete", gpus, len(a.Finishes.Records))
		}
		b := run()
		if a.Degraded != b.Degraded || a.Elapsed != b.Elapsed {
			t.Fatalf("%d GPUs: same seed, different outcomes:\n%+v %v\n%+v %v", gpus, a.Degraded, a.Elapsed, b.Degraded, b.Elapsed)
		}
	}
}

func TestRunCleanHasNoDegradedEvents(t *testing.T) {
	res, err := Run(Config{Seed: 2, Kind: Vanilla}, smallClients(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded.Any() {
		t.Fatalf("fault-free run reports degraded events: %v", res.Degraded)
	}
}

func TestRetryBudgetExhaustionDeniesRetries(t *testing.T) {
	// An abort rate high enough that most batches die, against a budget of a
	// single retry token: after the token is spent, further failures must be
	// denied instead of retried.
	clients := []ClientSpec{
		{Model: model.Inception, Batch: 10, Batches: 4},
		{Model: model.Inception, Batch: 10, Batches: 4},
	}
	res, err := Run(Config{
		Seed:        3,
		Kind:        Vanilla,
		Faults:      &faults.Plan{AbortRate: 0.5},
		RetryBudget: 1,
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded.JobAborts == 0 {
		t.Fatal("abort plan never engaged; test is vacuous")
	}
	if res.Degraded.RetryDenied == 0 {
		t.Fatal("budget of 1 absorbed every failure without denying a retry")
	}
	if res.Degraded.BatchRetries > 1+res.Degraded.BatchFailures {
		t.Fatalf("retries %d overran the budget (failures %d)",
			res.Degraded.BatchRetries, res.Degraded.BatchFailures)
	}
}

func TestNegativeRetryBudgetDisablesRetries(t *testing.T) {
	clients := []ClientSpec{{Model: model.Inception, Batch: 10, Batches: 4}}
	res, err := Run(Config{
		Seed:        3,
		Kind:        Vanilla,
		Faults:      &faults.Plan{AbortRate: 0.5},
		RetryBudget: -1,
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded.BatchRetries != 0 {
		t.Fatalf("retries disabled but %d batches retried", res.Degraded.BatchRetries)
	}
	if res.Degraded.JobAborts > 0 && res.Degraded.RetryDenied == 0 {
		t.Fatal("aborted batches were not recorded as retry-denied")
	}
}

func TestRetryBackoffIsDeterministic(t *testing.T) {
	run := func() *Result {
		res, err := Run(Config{
			Seed:         9,
			Kind:         Vanilla,
			Faults:       &faults.Plan{AbortRate: 0.3},
			RetryBackoff: 2 * time.Millisecond,
		}, []ClientSpec{
			{Model: model.Inception, Batch: 10, Batches: 5},
			{Model: model.Inception, Batch: 10, Batches: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Degraded != b.Degraded {
		t.Fatalf("same-seed degraded tallies diverged:\n%+v\n%+v", a.Degraded, b.Degraded)
	}
	if a.Elapsed != b.Elapsed {
		t.Fatalf("same-seed elapsed diverged: %v vs %v", a.Elapsed, b.Elapsed)
	}
}

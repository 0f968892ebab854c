package cluster

import (
	"reflect"
	"testing"
	"time"

	"olympian/internal/faults"
	"olympian/internal/gpu"
	"olympian/internal/model"
	"olympian/internal/planner"
)

// newSingleHeap builds a cluster on the single-heap reference engine.
func newSingleHeap(t *testing.T, cfg Config) *ShardedCluster {
	t.Helper()
	c, err := NewSharded(cfg, SingleHeap)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runTraffic schedules n interactive requests per model on the front-end at
// the given interarrival gap and runs the cluster to quiescence.
func runTraffic(t *testing.T, c *ShardedCluster, models []string, n int, gap time.Duration) {
	t.Helper()
	driveSharded(t, c, shardedScenario{name: "traffic", models: models, n: n, gap: gap})
}

func twoDevices() []gpu.Spec { return []gpu.Spec{gpu.GTX1080Ti, gpu.GTX1080Ti} }

func TestRoundRobinCyclesReplicas(t *testing.T) {
	c := newSingleHeap(t, Config{Seed: 1, Devices: twoDevices(), Route: RoundRobin})
	runTraffic(t, c, []string{model.Inception}, 6, time.Millisecond)
	decs := c.Router().decisions
	if len(decs) != 6 {
		t.Fatalf("%d decisions, want 6", len(decs))
	}
	for i, d := range decs {
		if d.Device != i%2 {
			t.Fatalf("decision %d routed to device %d, want strict alternation: %+v", i, d.Device, decs)
		}
	}
}

func TestLeastOutstandingBalances(t *testing.T) {
	c := newSingleHeap(t, Config{Seed: 1, Devices: twoDevices(), Route: LeastOutstanding})
	// All 8 requests arrive at t=0, before any completes: least-outstanding
	// must split them 4/4.
	runTraffic(t, c, []string{model.Inception}, 8, 0)
	counts := make([]int, 2)
	for _, d := range c.Router().decisions {
		counts[d.Device]++
	}
	if counts[0] != 4 || counts[1] != 4 {
		t.Fatalf("least-outstanding split %v, want [4 4]", counts)
	}
}

func TestCostWeightedSpreadsDebt(t *testing.T) {
	c := newSingleHeap(t, Config{Seed: 1, Devices: twoDevices(), Route: CostWeighted})
	runTraffic(t, c, []string{model.Inception, model.ResNet50}, 6, time.Millisecond)
	counts := make([]int, 2)
	for _, d := range c.Router().decisions {
		counts[d.Device]++
	}
	// Equal per-model unit costs on identical devices: debt must stay
	// balanced, so neither device can take more than one extra request.
	if diff := counts[0] - counts[1]; diff < -1 || diff > 1 {
		t.Fatalf("cost-weighted split %v, want balanced", counts)
	}
	st := c.Stats()
	if st.Failed != 0 || st.Completed != 12 {
		t.Fatalf("stats %+v, want 12 completed", st)
	}
}

func TestPlacementRestrictsRouting(t *testing.T) {
	pl := &planner.Placement{Replicas: []planner.Replica{
		{Model: model.Inception, Batch: 1, Device: 1},
	}}
	c := newSingleHeap(t, Config{Seed: 1, Devices: twoDevices(), Placement: pl})
	runTraffic(t, c, []string{model.Inception}, 4, time.Millisecond)
	for _, d := range c.Router().decisions {
		if d.Device != 1 {
			t.Fatalf("decision %+v escaped the placement (want device 1)", d)
		}
	}
	if got := c.Router().Replicas(model.Inception); len(got) != 1 || got[0] != 1 {
		t.Fatalf("replicas %v, want [1]", got)
	}
}

func TestPlacementValidatedAgainstFleet(t *testing.T) {
	pl := &planner.Placement{Replicas: []planner.Replica{
		{Model: model.Inception, Batch: 1, Device: 5},
	}}
	if _, err := NewSharded(Config{Seed: 1, Devices: twoDevices(), Placement: pl}, SingleHeap); err == nil {
		t.Fatal("placement onto a missing device accepted, want error")
	}
}

func TestFailoverReroutesQueuedRequests(t *testing.T) {
	plans := []*faults.Plan{
		{StallEvery: 15 * time.Millisecond, StallDur: 40 * time.Millisecond},
		nil,
	}
	c := newSingleHeap(t, Config{
		Seed: 42, Devices: twoDevices(), Faults: plans,
		Route: RoundRobin, MaxBatch: 32, BatchTimeout: 8 * time.Millisecond,
	})
	runTraffic(t, c, []string{model.Inception}, 80, 500*time.Microsecond)
	st := c.Stats()
	if st.Degraded.DeviceStalls == 0 {
		t.Fatal("no stall fired; the fault plan never engaged")
	}
	if st.Failovers == 0 {
		t.Fatal("stall drained no queued requests into failover")
	}
	if st.Failed != 0 {
		t.Fatalf("%d requests failed despite failover (stats %+v)", st.Failed, st)
	}
	if st.Completed != 80 {
		t.Fatalf("%d completed, want all 80", st.Completed)
	}
	// Drained requests must have hopped off the stalled device.
	hopped := 0
	for _, d := range c.Router().decisions {
		if d.Failover {
			hopped++
		}
	}
	if hopped != st.Failovers {
		t.Fatalf("decision log shows %d failover dispatches, stats say %d", hopped, st.Failovers)
	}
}

func TestClusterDeterminism(t *testing.T) {
	run := func() (Stats, []Decision) {
		plans := []*faults.Plan{
			{StallEvery: 20 * time.Millisecond, StallDur: 30 * time.Millisecond},
			nil, nil,
		}
		c := newSingleHeap(t, Config{
			Seed: 7, Devices: []gpu.Spec{gpu.GTX1080Ti, gpu.GTX1080Ti, gpu.GTX1080Ti},
			Faults: plans, Route: CostWeighted, BatchTimeout: 4 * time.Millisecond,
		})
		runTraffic(t, c, []string{model.Inception, model.ResNet50}, 40, time.Millisecond)
		return c.Stats(), c.Router().decisions
	}
	st1, dec1 := run()
	st2, dec2 := run()
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("same-seed stats diverged:\n%+v\n%+v", st1, st2)
	}
	if !reflect.DeepEqual(dec1, dec2) {
		t.Fatal("same-seed routing decision logs diverged")
	}
	if st1.DecisionHash != st2.DecisionHash || st1.DecisionHash == 0 {
		t.Fatalf("decision hashes %x vs %x, want equal and non-zero", st1.DecisionHash, st2.DecisionHash)
	}
}

func TestStatsAggregation(t *testing.T) {
	c := newSingleHeap(t, Config{Seed: 3, Devices: twoDevices()})
	runTraffic(t, c, []string{model.Inception, model.ResNet50}, 10, time.Millisecond)
	st := c.Stats()
	if st.Devices != 2 || len(st.PerDevice) != 2 || len(st.Utilization) != 2 {
		t.Fatalf("per-device aggregation wrong: %+v", st)
	}
	if st.Requests != 20 || st.Completed != 20 || st.Failed != 0 {
		t.Fatalf("request accounting wrong: %+v", st)
	}
	if st.Goodput <= 0 {
		t.Fatalf("goodput %v, want > 0", st.Goodput)
	}
	if len(st.PerModel) != 2 || st.PerModel[0].Model != model.Inception {
		t.Fatalf("per-model percentiles %+v, want sorted entries for both models", st.PerModel)
	}
	for _, pm := range st.PerModel {
		if pm.Latency.N != 10 || pm.Latency.P50 <= 0 || pm.Latency.P99 < pm.Latency.P50 {
			t.Fatalf("%s percentiles malformed: %+v", pm.Model, pm.Latency)
		}
	}
	devReqs := 0
	for _, ds := range st.PerDevice {
		devReqs += ds.Requests
	}
	if devReqs != 20 {
		t.Fatalf("device-level requests sum to %d, want 20", devReqs)
	}
}

// TestFoldRejectsUnknownAttempt: a report for an attempt its request no
// longer holds — delivered twice, or crossed between requests — must fail
// loudly instead of folding into the wrong state.
func TestFoldRejectsUnknownAttempt(t *testing.T) {
	c := newSingleHeap(t, Config{Seed: 1, Devices: twoDevices()})
	r := &ShardedRequest{}
	id := c.dispatch(&r.request, 1, false)
	if att, open := c.fold(&r.request, id); att.dev != 1 || !open {
		t.Fatalf("fold = %+v, open %v; want device 1, undecided", att, open)
	}
	if n := c.OutstandingAttempts(); n != 0 {
		t.Fatalf("%d attempts outstanding after the fold", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a duplicate report folded without a panic")
		}
	}()
	c.fold(&r.request, id)
}

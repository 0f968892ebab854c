package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"time"

	"olympian/internal/cluster"
	"olympian/internal/faults"
	"olympian/internal/gpu"
	"olympian/internal/invariant"
	"olympian/internal/model"
	"olympian/internal/obs"
	"olympian/internal/overload"
	"olympian/internal/planner"
	"olympian/internal/profiler"
)

// clusterModels is the served mix: two models with distinct costs so
// placement and cost-weighted routing have real work to do.
var clusterModels = []string{model.Inception, model.ResNet50}

// clusterRun drives one fleet: Poisson arrivals split across the model mix,
// routed by the cluster, until the horizon closes the arrival window.
type clusterRun struct {
	devices []gpu.Spec
	faults  []*faults.Plan
	route   cluster.RoutePolicy
	rate    float64 // aggregate offered req/s
	horizon time.Duration
	seed    int64
	// batchTimeout tunes queue residency: scaling runs flush fast for low
	// latency; the failover run lingers so stalls catch queued requests.
	batchTimeout time.Duration
}

// place plans the fleet's replica assignment from profiled batch-1 costs.
func clusterPlace(o Options, devices []gpu.Spec, rate float64) (*planner.Placement, error) {
	caps := make([]planner.DeviceCap, len(devices))
	for i, d := range devices {
		caps[i] = planner.DeviceCap{ID: i, MemoryBytes: d.MemoryBytes, ClockScale: d.ClockScale}
	}
	loads := make([]planner.ModelLoad, 0, len(clusterModels))
	for _, name := range clusterModels {
		prof, err := o.Profiles.GetOrCompute(profiler.Key{Model: name, Batch: 1}, func() (*profiler.Result, error) {
			g, err := model.Build(name, 1)
			if err != nil {
				return nil, err
			}
			return profiler.ProfileSolo(g, profiler.Options{Spec: devices[0], Seed: o.Seed + 900})
		})
		if err != nil {
			return nil, err
		}
		mem, err := model.MemoryBytes(name, 1)
		if err != nil {
			return nil, err
		}
		loads = append(loads, planner.ModelLoad{
			Model: name, Batch: 1,
			Cost: prof.TotalCost, GPUDuration: prof.GPUDuration,
			MemoryBytes: mem, Rate: rate / float64(len(clusterModels)),
		})
	}
	return planner.PlanPlacement(loads, caps, planner.Spread)
}

// run executes one cluster simulation on the single-heap engine and returns
// its stats. A non-nil rec splices the run onto the experiment's lifecycle
// trace under label.
func (r clusterRun) run(o Options, rec *obs.Recorder, label string) (cluster.Stats, error) {
	pl, err := clusterPlace(o, r.devices, r.rate)
	if err != nil {
		return cluster.Stats{}, err
	}
	bt := r.batchTimeout
	if bt == 0 {
		bt = 2 * time.Millisecond
	}
	c, err := cluster.NewSharded(cluster.Config{
		Seed: r.seed, Devices: r.devices, Faults: r.faults,
		Placement: pl, Route: r.route,
		Quantum: o.quantum(), MaxBatch: 16, BatchTimeout: bt,
		Profiles: o.Profiles, Obs: rec,
	}, cluster.SingleHeap)
	if err != nil {
		return cluster.Stats{}, err
	}
	// Open-loop Poisson arrivals: pre-draw each request's arrival time and
	// model from a seeded stream until one lands past the horizon (arrival
	// order decides routing order).
	rng := rand.New(rand.NewSource(r.seed + 17))
	var arrivals []invariant.Arrival
	for at := 0.0; at < r.horizon.Seconds(); {
		at += rng.ExpFloat64() / r.rate
		arrivals = append(arrivals, invariant.Arrival{
			At:    time.Duration(at * float64(time.Second)),
			Model: clusterModels[rng.Intn(len(clusterModels))],
			Class: overload.Interactive,
		})
	}
	st, vs, err := invariant.DriveSharded(c, len(arrivals), replay(arrivals), "run:"+label)
	if err == nil && len(vs) > 0 {
		err = fmt.Errorf("cluster %s: request conservation violated: %v", label, vs)
	}
	return st, err
}

// Cluster reproduces the extension experiment for the multi-GPU fleet
// layer: goodput scaling from 1 to 8 devices under planned placement and
// least-outstanding routing, fairness of per-device load, failover across
// an injected device stall, and bit-identical same-seed determinism of the
// whole stack including the router's decision fingerprint.
func Cluster(o Options) (*Report, error) {
	o = o.withDefaults()
	rep := &Report{
		ID:      "cluster",
		Title:   "Extension: multi-GPU cluster serving",
		Paper:   "Olympian schedules one GPU; this extension fronts N devices with placement, routing, and failover",
		Headers: []string{"devices", "offered req/s", "goodput req/s", "completed", "failed", "failovers", "util spread"},
	}

	// A single device serves ~50 req/s of this mix at small batches; offer
	// ~2/3 of that per device so queues stay stable and goodput tracks the
	// offered load near-linearly as the fleet grows.
	counts := []int{1, 2, 4, 8}
	perDevRate, horizon := 35.0, 2*time.Second
	if o.Quick {
		counts = []int{1, 2, 4}
		perDevRate, horizon = 30.0, time.Second
	}

	var goodput []float64
	for _, n := range counts {
		st, err := clusterRun{
			devices: shardedFleet(n), route: cluster.LeastOutstanding,
			rate: perDevRate * float64(n), horizon: horizon, seed: o.Seed,
		}.run(o, o.Obs, fmt.Sprintf("cluster-scale-%d", n))
		if err != nil {
			return nil, err
		}
		lo, hi := 1.0, 0.0
		for _, u := range st.Utilization {
			lo, hi = math.Min(lo, u), math.Max(hi, u)
		}
		rep.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", perDevRate*float64(n)),
			fmt.Sprintf("%.1f", st.Goodput),
			fmt.Sprintf("%d", st.Completed),
			fmt.Sprintf("%d", st.Failed),
			fmt.Sprintf("%d", st.Failovers),
			fmt.Sprintf("%.3f", hi-lo),
		)
		goodput = append(goodput, st.Goodput)
		if n == counts[len(counts)-1] {
			for _, pm := range st.PerModel {
				rep.AddNote("%d devices, %s: %s", n, pm.Model, pm.Latency)
			}
		}
	}
	first, last := goodput[0], goodput[len(goodput)-1]
	scale := 0.0
	if first > 0 {
		scale = last / (first * float64(counts[len(counts)-1]))
	}
	rep.AddNote("goodput scaling efficiency at %d devices: %.2f (1.0 = perfectly linear)",
		counts[len(counts)-1], scale)
	rep.SetMetric("goodput_1", first)
	rep.SetMetric("goodput_max", last)
	rep.SetMetric("scaling_efficiency", scale)

	// Failover: stall device 0 mid-run and require the router to re-route
	// its queued work with zero cluster-level failures.
	fo := clusterRun{
		devices: []gpu.Spec{gpu.GTX1080Ti, gpu.GTX1080Ti},
		faults: []*faults.Plan{
			{StallEvery: 80 * time.Millisecond, StallDur: 60 * time.Millisecond},
			nil,
		},
		route: cluster.RoundRobin, rate: 2 * perDevRate, horizon: horizon, seed: o.Seed + 5,
		batchTimeout: 10 * time.Millisecond,
	}
	fst, err := fo.run(o, o.Obs, "cluster-failover")
	if err != nil {
		return nil, err
	}
	rep.AddNote("failover: %d stalls drained %d requests onto survivors; %d/%d completed, %d failed",
		fst.Degraded.DeviceStalls, fst.Failovers, fst.Completed, fst.Requests, fst.Failed)
	rep.SetMetric("failover_stalls", float64(fst.Degraded.DeviceStalls))
	rep.SetMetric("failovers", float64(fst.Failovers))
	rep.SetMetric("failover_failed", float64(fst.Failed))

	// Determinism: the failover run (the hardest case — stalls, drains,
	// re-dispatches) must be bit-identical on a second same-seed run,
	// including the routing decision fingerprint.
	// The probe runs un-observed: the recorder never steers the simulation,
	// so stats and decision hash must match an observed run bit for bit.
	fst2, err := fo.run(o, nil, "")
	if err != nil {
		return nil, err
	}
	deterministic := reflect.DeepEqual(fst, fst2)
	rep.AddNote("determinism: same-seed rerun identical = %v (decision hash %x)",
		deterministic, fst.DecisionHash)
	det := 0.0
	if deterministic {
		det = 1
	}
	rep.SetMetric("deterministic", det)
	return rep, nil
}

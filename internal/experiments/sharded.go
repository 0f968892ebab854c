package experiments

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"olympian/internal/cluster"
	"olympian/internal/faults"
	"olympian/internal/gpu"
	"olympian/internal/invariant"
	"olympian/internal/model"
	"olympian/internal/overload"
	"olympian/internal/planner"
)

// shardedFleet builds n identical reference devices.
func shardedFleet(n int) []gpu.Spec {
	devs := make([]gpu.Spec, n)
	for i := range devs {
		devs[i] = gpu.GTX1080Ti
	}
	return devs
}

// engineIdentity probes one fleet scenario across engines: run executes it on
// an engine with a worker-pool size. It returns the single-heap reference
// run, whether the parallel engine reproduced it bit for bit at its serial
// degradation (workers=1) and at full parallelism (workers=0 = GOMAXPROCS),
// and whether a same-seed single-heap rerun did.
func engineIdentity[S any](run func(cluster.Engine, int) (S, error)) (ref S, identical, deterministic bool, err error) {
	if ref, err = run(cluster.SingleHeap, 0); err != nil {
		return ref, false, false, err
	}
	identical = true
	for _, workers := range []int{1, 0} {
		got, err := run(cluster.Sharded, workers)
		if err != nil {
			return ref, false, false, err
		}
		identical = identical && reflect.DeepEqual(ref, got)
	}
	again, err := run(cluster.SingleHeap, 0)
	if err != nil {
		return ref, false, false, err
	}
	return ref, identical, reflect.DeepEqual(ref, again), nil
}

// replay returns an arrival train's next function over pre-drawn arrivals.
func replay(arrivals []invariant.Arrival) func() invariant.Arrival {
	i := -1
	return func() invariant.Arrival {
		i++
		return arrivals[i]
	}
}

// shardedIdentity runs the hardest differential scenario — stalls, drains,
// failover, cost-weighted routing — on one engine and returns its stats.
func shardedIdentity(o Options, engine cluster.Engine, workers int) (cluster.Stats, error) {
	c, err := cluster.NewSharded(cluster.Config{
		Seed:    o.Seed + 31,
		Devices: shardedFleet(4),
		Faults: []*faults.Plan{
			{StallEvery: 10 * time.Millisecond, StallDur: 40 * time.Millisecond},
			nil, nil, nil,
		},
		Placement: &planner.Placement{Replicas: []planner.Replica{
			{Model: model.Inception, Batch: 1, Device: 0},
			{Model: model.Inception, Batch: 1, Device: 1},
			{Model: model.ResNet50, Batch: 1, Device: 1},
			{Model: model.ResNet50, Batch: 1, Device: 2},
			{Model: model.ResNet50, Batch: 1, Device: 3},
		}},
		Route:        cluster.CostWeighted,
		BatchTimeout: 8 * time.Millisecond,
		Profiles:     o.Profiles,
		Workers:      workers,
	}, engine)
	if err != nil {
		return cluster.Stats{}, err
	}
	// Each 500µs tick brings one Inception and then one ResNet-50 request.
	models := []string{model.Inception, model.ResNet50}
	i := -1
	st, vs, err := invariant.DriveSharded(c, 160, func() invariant.Arrival {
		i++
		return invariant.Arrival{At: time.Duration(i/2) * 500 * time.Microsecond, Model: models[i%2], Class: overload.Interactive}
	}, "")
	if err == nil && len(vs) > 0 {
		err = fmt.Errorf("sharded: request conservation violated: %v", vs)
	}
	return st, err
}

// shardedSweep drives an open-loop Poisson sweep of the micro model through
// a sharded cluster in slim mode, returning stats and the wall-clock time of
// the whole driven run. The arrival train holds one pending event however
// long it is, and all randomness lives in one private seeded stream drawn
// as the train advances — both engines see the identical arrival sequence.
// A sweep that does not complete every request is an error.
func shardedSweep(engine cluster.Engine, devices, requests int, perDevRate float64, seed int64) (cluster.Stats, time.Duration, error) {
	c, err := cluster.NewSharded(cluster.Config{
		Seed:         seed,
		Devices:      shardedFleet(devices),
		Route:        cluster.LeastOutstanding,
		MaxBatch:     16,
		BatchTimeout: 2 * time.Millisecond,
		Slim:         true,
	}, engine)
	if err != nil {
		return cluster.Stats{}, 0, err
	}
	rng := rand.New(rand.NewSource(seed + 17))
	rate := perDevRate * float64(devices)
	at := time.Duration(0)
	start := time.Now()
	st, vs, err := invariant.DriveSharded(c, requests, func() invariant.Arrival {
		a := invariant.Arrival{At: at, Model: model.Micro, Class: overload.Interactive}
		at += time.Duration(rng.ExpFloat64() * float64(time.Second) / rate)
		return a
	}, "")
	wall := time.Since(start)
	if err != nil {
		return cluster.Stats{}, 0, err
	}
	if len(vs) > 0 || st.Completed != st.Requests || st.Requests != requests {
		return cluster.Stats{}, 0, fmt.Errorf("sharded: %d-device %v sweep lost requests: %+v %v", devices, engine, st, vs)
	}
	return st, wall, nil
}

// Sharded exercises the parallel simulation core: the sharded per-device
// engine must be bit-identical to the single-heap reference on the hardest
// failover scenario, and the same sweep must scale to a 64-device fleet in
// slim mode with bounded memory. Wall-clock numbers are hardware-dependent
// (the parallel engine needs real cores to beat the single heap; on one core
// it degrades gracefully to serial) and are reported as observations, not
// asserted.
func Sharded(o Options) (*Report, error) {
	o = o.withDefaults()
	rep := &Report{
		ID:    "sharded",
		Title: "Parallel simulation core: sharded engines, identity and scale",
		Paper: "Implementation study: per-device sub-environments with conservative lookahead must preserve the single-heap semantics bit for bit",
		Headers: []string{
			"run", "engine", "devices", "requests", "completed",
			"goodput req/s", "wall s", "req/s wall",
		},
	}

	// Identity: the single-heap reference versus the parallel engine at its
	// serial degradation (workers=1) and full parallelism (workers=0 =
	// GOMAXPROCS) must agree on every stat, including the decision-log hash.
	ref, identical, deterministic, err := engineIdentity(func(engine cluster.Engine, workers int) (cluster.Stats, error) {
		return shardedIdentity(o, engine, workers)
	})
	if err != nil {
		return nil, err
	}
	rep.AddNote("identity: sharded engine (serial and parallel) bit-identical to single-heap = %v; same-seed rerun identical = %v (decision hash %x, %d failovers, %d stalls)",
		identical, deterministic, ref.DecisionHash, ref.Failovers, ref.Degraded.DeviceStalls)
	rep.SetMetric("bit_identical", boolMetric(identical && deterministic))

	// Wall-clock: the same 8-device sweep on both engines. The micro model
	// keeps per-request event counts small so the run measures engine
	// overhead, not kernel simulation.
	sweepN := 100_000
	scaleN := 1_000_000
	if o.Quick {
		sweepN = 20_000
		scaleN = 100_000
	}
	const perDevRate = 2000.0
	var speedup float64
	engines := []cluster.Engine{cluster.SingleHeap, cluster.Sharded}
	walls := make([]time.Duration, len(engines))
	for i, engine := range engines {
		st, wall, err := shardedSweep(engine, 8, sweepN, perDevRate, o.Seed)
		if err != nil {
			return nil, err
		}
		walls[i] = wall
		rep.AddRow("8-dev sweep", engine.String(), "8",
			fmt.Sprintf("%d", st.Requests), fmt.Sprintf("%d", st.Completed),
			fmt.Sprintf("%.0f", st.Goodput),
			fmt.Sprintf("%.2f", wall.Seconds()),
			fmt.Sprintf("%.0f", float64(st.Requests)/wall.Seconds()))
	}
	if walls[1] > 0 {
		speedup = walls[0].Seconds() / walls[1].Seconds()
	}
	rep.AddNote("8-device wall-clock speedup sharded/single-heap: %.2fx (hardware-dependent; needs >1 core to exceed 1x)", speedup)
	rep.SetMetric("speedup_8dev", speedup)

	// Scale: a 64-device fleet in slim mode. Slim retains no per-request or
	// per-decision state, so request count only moves wall-clock, not memory
	// — the full-size run extrapolates linearly to the 10M-request sweep.
	st, wall, err := shardedSweep(cluster.Sharded, 64, scaleN, perDevRate, o.Seed+3)
	if err != nil {
		return nil, err
	}
	reqPerS := float64(st.Requests) / wall.Seconds()
	rep.AddRow("64-dev sweep", cluster.Sharded.String(), "64",
		fmt.Sprintf("%d", st.Requests), fmt.Sprintf("%d", st.Completed),
		fmt.Sprintf("%.0f", st.Goodput),
		fmt.Sprintf("%.2f", wall.Seconds()),
		fmt.Sprintf("%.0f", reqPerS))
	rep.AddNote("64-device slim sweep: %d requests in %.2fs wall (%.0f req/s); 10M-request sweep extrapolates to %.0fs on this hardware",
		st.Requests, wall.Seconds(), reqPerS, 10_000_000/reqPerS)
	rep.SetMetric("scale_requests", float64(st.Requests))
	rep.SetMetric("scale_wall_s", wall.Seconds())
	rep.SetMetric("scale_req_per_s_wall", reqPerS)
	return rep, nil
}

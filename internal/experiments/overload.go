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
	"olympian/internal/obs"
	"olympian/internal/overload"
	"olympian/internal/serving"
	"olympian/internal/sim"
	"olympian/internal/telemetry"
)

// overloadPoint is one offered-load multiple's outcome.
type overloadPoint struct {
	mult     float64
	offered  int
	stats    serving.Stats
	horizon  time.Duration
	timeline *telemetry.Timeline // non-nil when the point ran sampled
}

// overloadServe runs the serving front-end at one offered-load multiple with
// adaptive admission and priority classes on. Arrivals are open-loop Poisson
// with a seeded 30/70 interactive/batch class mix; the returned stats are a
// deterministic function of (seed, mult).
func overloadServe(o Options, rate float64, horizon time.Duration, rec *obs.Recorder, label string) (overloadPoint, error) {
	env := sim.NewEnv(o.Seed)
	defer env.Shutdown()
	// The run records into its own child, spliced onto rec afterwards: the
	// server's latency histograms live in the child's registry, so they (and
	// the stats derived from them) cover this run alone, not every earlier
	// sweep point recorded onto rec.
	child := rec.NewChild()
	child.Bind(env, "run:"+label)
	// The sampler scrapes the child's registry on the virtual clock; when rec
	// is nil (the determinism probe) the registry is nil and the sampler
	// stays disabled, so the probe doubles as the zero-perturbation check.
	var sampler *telemetry.Sampler
	if o.Telemetry != nil {
		sampler = telemetry.NewSampler(*o.Telemetry, child.Registry())
		sampler.Bind(env)
	}
	srv, err := serving.NewServer(env, serving.Config{
		MaxBatch:     8,
		BatchTimeout: 2 * time.Millisecond,
		MaxQueue:     64,
		Deadline:     120 * time.Millisecond,
		Seed:         o.Seed,
		Admission:    &overload.AIMDConfig{},
		Obs:          child,
	})
	if err != nil {
		return overloadPoint{}, err
	}
	rng := rand.New(rand.NewSource(o.Seed + 57))
	t := time.Duration(0)
	n := 0
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= horizon {
			break
		}
		at := t
		class := overload.Batch
		if rng.Float64() < 0.3 {
			class = overload.Interactive
		}
		n++
		env.Go(fmt.Sprintf("client-%d", n), func(p *sim.Proc) {
			p.Sleep(at)
			req, err := srv.SubmitClass(p, model.Inception, class)
			if err != nil {
				return
			}
			req.Wait(p)
		})
	}
	if err := env.Run(); err != nil {
		return overloadPoint{}, err
	}
	st := srv.Stats()
	if vs := invariant.CheckServing("overload-point", st); len(vs) > 0 {
		return overloadPoint{}, fmt.Errorf("overload: request conservation violated: %v", vs)
	}
	rec.Splice(child)
	pt := overloadPoint{offered: n, stats: st, horizon: horizon}
	if sampler != nil {
		pt.timeline = telemetry.Merge(*o.Telemetry, []*telemetry.Sampler{sampler})
		pt.timeline.LogAlerts(rec)
	}
	return pt, nil
}

// overloadHedge drives a two-device fleet where device 0 stalls repeatedly,
// with hedged requests racing a duplicate on the healthy device after a
// deterministic delay.
func overloadHedge(o Options, horizon time.Duration, rec *obs.Recorder) (cluster.Stats, error) {
	c, err := cluster.NewSharded(cluster.Config{
		Seed:    o.Seed + 11,
		Devices: []gpu.Spec{gpu.GTX1080Ti, gpu.GTX1080Ti},
		Faults: []*faults.Plan{
			{StallEvery: 60 * time.Millisecond, StallDur: 40 * time.Millisecond},
			nil,
		},
		Route:        cluster.RoundRobin,
		MaxBatch:     8,
		BatchTimeout: 5 * time.Millisecond,
		HedgeDelay:   60 * time.Millisecond,
		Profiles:     o.Profiles,
		Obs:          rec,
	}, cluster.SingleHeap)
	if err != nil {
		return cluster.Stats{}, err
	}
	rng := rand.New(rand.NewSource(o.Seed + 23))
	const rate = 50.0
	var arrivals []invariant.Arrival
	for t := 0.0; t < horizon.Seconds(); {
		t += rng.ExpFloat64() / rate
		arrivals = append(arrivals, invariant.Arrival{
			At: time.Duration(t * float64(time.Second)), Model: model.Inception, Class: overload.Interactive,
		})
	}
	st, vs, err := invariant.DriveSharded(c, len(arrivals), replay(arrivals), "run:overload-hedge")
	if err == nil && len(vs) > 0 {
		err = fmt.Errorf("overload-hedge: request conservation violated: %v", vs)
	}
	return st, err
}

// Overload is the overload-control experiment: it sweeps offered load from
// half to four times the single-device plateau with AIMD adaptive admission
// and priority classes on, then races hedged requests across a two-device
// fleet with one flaky replica. The claims under test: goodput plateaus
// instead of collapsing as offered load quadruples, shedding lands on the
// batch class while interactive work keeps completing, hedges never
// double-count completions, and every path is same-seed bit-identical.
func Overload(o Options) (*Report, error) {
	o = o.withDefaults()
	rep := &Report{
		ID:    "overload",
		Title: "Overload control: adaptive admission, priority shedding, hedging",
		Paper: "extension: the paper sizes T_j for stable queues; this measures behavior past saturation",
		Headers: []string{"load", "offered", "completed", "goodput req/s",
			"interactive done/shed", "batch done/shed", "limit"},
	}

	// baseRate sits near the single-device saturation point for this
	// batching configuration, so 1x is the goodput plateau and 2-4x are
	// genuinely past capacity.
	baseRate, horizon := 280.0, 2*time.Second
	if o.Quick {
		baseRate, horizon = 260.0, time.Second
	}

	mults := []float64{0.5, 1, 2, 4}
	points := make([]overloadPoint, 0, len(mults))
	for _, m := range mults {
		pt, err := overloadServe(o, baseRate*m, horizon, o.Obs, fmt.Sprintf("overload-%gx", m))
		if err != nil {
			return nil, err
		}
		pt.mult = m
		points = append(points, pt)

		inter := pt.stats.Degraded.ByClass[overload.Interactive]
		batch := pt.stats.Degraded.ByClass[overload.Batch]
		limit := 0.0
		for _, a := range pt.stats.Admission {
			limit = a.Limit
		}
		rep.AddRow(
			fmt.Sprintf("%.1fx", m),
			fmt.Sprintf("%d", pt.offered),
			fmt.Sprintf("%d", pt.stats.Completed),
			fmt.Sprintf("%.1f", float64(pt.stats.Completed)/horizon.Seconds()),
			fmt.Sprintf("%d/%d", inter.Completed, inter.Shed+inter.Expired),
			fmt.Sprintf("%d/%d", batch.Completed, batch.Shed+batch.Expired),
			fmt.Sprintf("%.1f", limit),
		)
	}

	goodputAt := func(mult float64) float64 {
		for _, pt := range points {
			if pt.mult == mult {
				return float64(pt.stats.Completed) / pt.horizon.Seconds()
			}
		}
		return 0
	}
	plateau := 0.0
	if g1 := goodputAt(1); g1 > 0 {
		plateau = goodputAt(4) / g1
	}
	rep.AddNote("goodput at 4x offered load is %.2fx the 1x plateau (>=0.9 = no congestion collapse)", plateau)
	rep.SetMetric("goodput_1x", goodputAt(1))
	rep.SetMetric("goodput_4x", goodputAt(4))
	rep.SetMetric("plateau_ratio", plateau)

	// Priority isolation at the highest load: shedding must land on the
	// batch class while interactive requests keep completing.
	last := points[len(points)-1]
	inter := last.stats.Degraded.ByClass[overload.Interactive]
	batch := last.stats.Degraded.ByClass[overload.Batch]
	interLossFrac, batchLossFrac := 0.0, 0.0
	if inter.Submitted > 0 {
		interLossFrac = float64(inter.Shed+inter.Expired) / float64(inter.Submitted)
	}
	if batch.Submitted > 0 {
		batchLossFrac = float64(batch.Shed+batch.Expired) / float64(batch.Submitted)
	}
	rep.AddNote("at 4x: interactive lost %.1f%% of %d, batch lost %.1f%% of %d (evictions=%d)",
		interLossFrac*100, inter.Submitted, batchLossFrac*100, batch.Submitted,
		last.stats.Degraded.Evictions)
	rep.SetMetric("interactive_loss_frac_4x", interLossFrac)
	rep.SetMetric("batch_loss_frac_4x", batchLossFrac)
	rep.SetMetric("interactive_completed_4x", float64(inter.Completed))
	rep.SetMetric("admission_sheds_4x", float64(last.stats.Degraded.AdmissionSheds))
	rep.SetMetric("evictions_4x", float64(last.stats.Degraded.Evictions))

	// Telemetry plane: the 4x point's merged timeline (sampled on the virtual
	// clock) carries the burn-rate alert log; past saturation the latency SLO
	// must burn fast enough to fire at least one alert.
	if last.timeline != nil {
		rep.Timeline = last.timeline
		firing := 0
		for _, a := range last.timeline.Alerts {
			if a.State == "firing" {
				firing++
			}
		}
		rep.AddNote("telemetry at 4x: %d ticks sampled, %d alert transitions (%d firing)",
			last.timeline.Ticks, len(last.timeline.Alerts), firing)
		rep.SetMetric("slo_alerts_4x", float64(len(last.timeline.Alerts)))
		rep.SetMetric("slo_alerts_firing_4x", float64(firing))
	}

	// Determinism of the hardest sweep point: a same-seed rerun must
	// reproduce every counter, including the per-class break-down. It runs
	// un-observed — the recorder never steers the simulation.
	again, err := overloadServe(o, baseRate*4, horizon, nil, "")
	if err != nil {
		return nil, err
	}
	deterministic := reflect.DeepEqual(last.stats, again.stats) && last.offered == again.offered

	// Hedging: a flaky replica's stragglers are raced against a duplicate on
	// the healthy device; losers are cancelled, so completions never double.
	hst, err := overloadHedge(o, horizon, o.Obs)
	if err != nil {
		return nil, err
	}
	accounted := hst.Completed + hst.Failed
	rep.AddNote("hedging: %d hedges (%d wins) over %d requests; %d completed + %d failed = %d accounted (cancelled losers: %d)",
		hst.Hedges, hst.HedgeWins, hst.Requests, hst.Completed, hst.Failed, accounted, hst.Degraded.Canceled)
	rep.SetMetric("hedges", float64(hst.Hedges))
	rep.SetMetric("hedge_wins", float64(hst.HedgeWins))
	rep.SetMetric("hedge_overcount", float64(accounted-hst.Requests))

	hst2, err := overloadHedge(o, horizon, nil)
	if err != nil {
		return nil, err
	}
	deterministic = deterministic && reflect.DeepEqual(hst, hst2)
	if deterministic {
		rep.AddNote("two same-seed runs produced bit-identical stats on the 4x sweep and the hedged fleet")
	} else {
		rep.AddNote("WARNING: same-seed runs diverged — determinism broken")
	}
	rep.SetMetric("deterministic", boolMetric(deterministic))
	return rep, nil
}

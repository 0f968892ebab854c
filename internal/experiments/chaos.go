package experiments

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"olympian/internal/faults"
	"olympian/internal/invariant"
	"olympian/internal/metrics"
	"olympian/internal/model"
	"olympian/internal/obs"
	"olympian/internal/serving"
	"olympian/internal/sim"
	"olympian/internal/workload"
)

// Chaos is the failure-tolerance experiment: it re-runs the paper's fair
// sharing workload with the deterministic fault plane enabled (transient
// kernel failures, device stalls, job aborts) and drives the serving
// front-end through arrival bursts with SLO shedding on. The claims under
// test: Olympian's fairness and the front-end's tail latency degrade
// gracefully rather than collapse, no fault scenario wedges the token, and
// a fixed seed reproduces the exact same fault, retry, and finish tallies.
func Chaos(o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:    "chaos",
		Title: "Chaos: fairness and tail latency under injected faults",
		Paper: "extension: the paper assumes a reliable device; this measures degradation under faults",
	}

	// Part A: closed-loop fair sharing with faults injected underneath.
	clients := o.homogeneous(o.clients())
	// Rates are sized so recovery wins: kernel faults are absorbed by
	// executor retries, and per-batch abort odds stay low enough that the
	// client-level retry budget almost always replays the lost batch.
	plan := faults.Plan{
		KernelFailRate: 0.01,
		AbortRate:      0.0001,
		StallEvery:     20 * time.Millisecond,
		StallDur:       2 * time.Millisecond,
	}
	base := workload.Config{Kind: workload.Olympian, Quantum: o.quantum()}
	faulty := base
	faulty.Faults = &plan
	results, err := o.runAll([]workload.RunSpec{
		{Config: base, Clients: clients},
		{Config: faulty, Clients: clients},
	})
	if err != nil {
		return nil, err
	}
	// Identical seed: determinism probe. Runs un-observed so the lifecycle
	// trace covers the faulty scenario once.
	probe := o
	probe.Obs = nil
	again, err := probe.run(faulty, clients)
	if err != nil {
		return nil, err
	}
	clean, chaotic := results[0], results[1]
	r.Headers = []string{"run", "finish spread", "last finish", "degraded"}
	r.AddRow("clean", fmt.Sprintf("%.3fx", clean.Finishes.Summary().Spread()),
		metrics.FormatSeconds(clean.Elapsed), clean.Degraded.String())
	r.AddRow("faulty", fmt.Sprintf("%.3fx", chaotic.Finishes.Summary().Spread()),
		metrics.FormatSeconds(chaotic.Elapsed), chaotic.Degraded.String())

	deterministic := chaotic.Degraded == again.Degraded && chaotic.Elapsed == again.Elapsed
	if deterministic {
		fa, fb := chaotic.Finishes.Durations(), again.Finishes.Durations()
		for i := range fa {
			if fa[i] != fb[i] {
				deterministic = false
				break
			}
		}
	}

	// Part B: the serving front-end under arrival bursts, with bounded
	// queues, deadlines, and batch retries absorbing the damage.
	horizon := 3 * time.Second
	rate := 80.0
	if o.Quick {
		horizon = time.Second
		rate = 40
	}
	burstPlan := faults.Plan{
		KernelFailRate: 0.005,
		BurstEvery:     400 * time.Millisecond,
		BurstDur:       100 * time.Millisecond,
		BurstFactor:    4,
	}
	serve := func(rec *obs.Recorder) (serving.Stats, time.Duration, int) {
		env := sim.NewEnv(o.Seed)
		// A child recorder keeps the server's latency histograms to this
		// run; it is spliced onto rec once the run quiesces.
		child := rec.NewChild()
		child.Bind(env, "run:chaos-serving")
		defer rec.Splice(child)
		inj := faults.New(o.Seed, burstPlan)
		srv, err := serving.NewServer(env, serving.Config{
			MaxBatch:     8,
			BatchTimeout: 5 * time.Millisecond,
			MaxQueue:     64,
			Deadline:     250 * time.Millisecond,
			Seed:         o.Seed,
			Faults:       inj,
			Obs:          child,
		})
		if err != nil {
			panic(err)
		}
		// Open-loop Poisson arrivals, thinned through the injector's burst
		// windows: inside a burst the offered rate is BurstFactor higher.
		rng := rand.New(rand.NewSource(o.Seed + 31))
		t := time.Duration(0)
		for {
			f := inj.RateFactor(sim.Time(t))
			t += time.Duration(rng.ExpFloat64() / (rate * f) * float64(time.Second))
			if t >= horizon {
				break
			}
			at := t
			env.Go("request", func(p *sim.Proc) {
				p.Sleep(at)
				req, err := srv.Submit(p, model.Inception)
				if err != nil {
					return
				}
				req.Wait(p)
			})
		}
		if err := env.Run(); err != nil {
			return serving.Stats{}, 0, 0
		}
		drained := time.Duration(env.Now())
		env.Shutdown()
		return srv.Stats(), drained, inj.Counters().Bursts
	}
	st, drained, bursts := serve(o.Obs)
	if st.Requests == 0 {
		return nil, fmt.Errorf("chaos: serving run produced no requests")
	}
	if vs := invariant.CheckServing("chaos-serving", st); len(vs) > 0 {
		return nil, fmt.Errorf("chaos: request conservation violated: %v", vs)
	}
	// Determinism probe runs un-observed; the recorder never steers the
	// simulation, so stats must match regardless.
	if st2, drained2, _ := serve(nil); !reflect.DeepEqual(st, st2) || drained != drained2 {
		deterministic = false
	}
	tailRatio := "no samples"
	if st.P50 > 0 {
		tailRatio = fmt.Sprintf("p99/p50 %.2f", st.P99/st.P50)
	}
	r.AddRow("serving+bursts", tailRatio,
		metrics.FormatSeconds(drained), st.Degraded.String())

	for _, ml := range st.PerModel {
		r.AddNote("serving latency %s: %s", ml.Model, ml.Latency)
	}
	r.AddNote("faults injected: %s", chaotic.Degraded.String())
	r.AddNote("serving absorbed %d bursts: %d/%d completed, degraded: %s",
		bursts, st.Completed, st.Requests, st.Degraded.String())
	if deterministic {
		r.AddNote("two same-seed runs produced bit-identical fault, retry, and finish tallies")
	} else {
		r.AddNote("WARNING: same-seed runs diverged — determinism broken")
	}
	r.SetMetric("deterministic", boolMetric(deterministic))
	r.SetMetric("clean_spread", clean.Finishes.Summary().Spread())
	r.SetMetric("faulty_spread", chaotic.Finishes.Summary().Spread())
	r.SetMetric("kernel_faults", float64(chaotic.Degraded.KernelFaults))
	r.SetMetric("kernel_retries", float64(chaotic.Degraded.KernelRetries))
	r.SetMetric("job_aborts", float64(chaotic.Degraded.JobAborts))
	r.SetMetric("serving_completed_frac", float64(st.Completed)/float64(st.Requests))
	r.SetMetric("serving_drops", float64(st.Degraded.Drops))
	r.SetMetric("serving_p99_ms", st.P99*1e3)
	return r, nil
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

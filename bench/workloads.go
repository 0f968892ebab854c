package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"olympian/internal/cluster"
	"olympian/internal/faults"
	"olympian/internal/gpu"
	"olympian/internal/invariant"
	"olympian/internal/llm"
	"olympian/internal/model"
	"olympian/internal/obs"
	"olympian/internal/overload"
	"olympian/internal/profiler"
	"olympian/internal/sim"
	"olympian/internal/telemetry"
	"olympian/internal/trace"
	"olympian/internal/workload"
)

// benchWorkload is one benchmark input set. setup generates the inputs from
// the seed at a size scale (1 is the benchmark size) and returns the rep
// function, which runs them once on a freshly built simulator, as every
// experiment does.
type benchWorkload struct {
	name  string
	setup func(seed int64, scale float64) (repFunc, error)
}

// repFunc runs one rep. sp records harness spans; it is nil outside the
// traced run.
type repFunc func(sp *spanLog) (repOut, error)

// repOut is what one rep produced.
type repOut struct {
	// requests is the number of requests the rep sent.
	requests int
	// modeled is the simulated outcome, fixed by the seed and the size.
	modeled modeled
	// counts are work counts read from public Stats, keyed by metric stem
	// (e.g. "gpu.kernels"); they are exact and do not depend on the host.
	counts map[string]float64
	// violations are the invariant checkers' findings.
	violations []string
}

// modeled is the simulated outcome of one rep. Every rep of a run must
// produce the same value, and seeds 1 and 2 at the benchmark size must
// reproduce testdata/golden.json.
type modeled struct {
	DecisionHash   string  `json:"decision_hash,omitempty"`
	Requests       int     `json:"requests"`
	Completed      int     `json:"completed"`
	Failed         int     `json:"failed"`
	Shed           int     `json:"shed"`
	Expired        int     `json:"expired"`
	Tokens         int     `json:"tokens"`
	VirtualNs      int64   `json:"virtual_ns"`
	Switches       int     `json:"switches"`
	VanillaSpread  float64 `json:"vanilla_spread,omitempty"`
	OlympianSpread float64 `json:"olympian_spread,omitempty"`
	Overhead       float64 `json:"overhead,omitempty"`
	TraceHash      string  `json:"trace_hash,omitempty"`
}

// workloads in report order. Sizes are chosen so one rep takes about two
// seconds on a 2-core host, giving the median of several reps in a 15 s run.
var workloads = []benchWorkload{
	{"paper-fig11", func(seed int64, scale float64) (repFunc, error) {
		return setupFig11(seed, scaled(10, scale), 4, 100)
	}},
	{"fleet-micro", func(seed int64, scale float64) (repFunc, error) {
		return setupFleet(seed, scaled(30_000, scale), false)
	}},
	{"llm-overload", func(seed int64, scale float64) (repFunc, error) {
		return setupLLM(seed, scaled(15_000, scale))
	}},
	{"fleet-chaos-observed", func(seed int64, scale float64) (repFunc, error) {
		return setupFleet(seed, scaled(30_000, scale), true)
	}},
}

func workloadNamed(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

func scaled(n int, scale float64) int {
	return max(1, int(math.Round(float64(n)*scale)))
}

func hexHash(h uint64) string { return fmt.Sprintf("%016x", h) }

// fig11Quantum is the Q the paper's profiler picks for the homogeneous
// workload, as experiments.Fig11 uses.
const fig11Quantum = 1200 * time.Microsecond

// setupFig11 prepares the Fig 11 pair: clients closed-loop Inception clients,
// each running batches sequential jobs. Setup builds the graph and profiles
// it exactly as experiments.Fig11 does (workload.Profile at seed+900).
func setupFig11(seed int64, clients, batches, batch int) (repFunc, error) {
	if _, err := model.BuildUncached(model.Inception, batch); err != nil {
		return nil, err
	}
	specs := make([]workload.ClientSpec, clients)
	for i := range specs {
		specs[i] = workload.ClientSpec{Model: model.Inception, Batch: batch, Batches: batches}
	}
	store := profiler.NewStore()
	if err := workload.Profile(store, []workload.ModelRef{specs[0].Ref()}, gpu.GTX1080Ti, seed+900); err != nil {
		return nil, err
	}
	vanilla := workload.Config{Seed: seed, Kind: workload.Vanilla, Spec: gpu.GTX1080Ti, Profiles: store}
	olympian := workload.Config{Seed: seed, Kind: workload.Olympian, Quantum: fig11Quantum, Spec: gpu.GTX1080Ti, Profiles: store}
	jobs := clients * batches
	return func(sp *spanLog) (repOut, error) {
		t := sp.now()
		van, err := workload.Run(vanilla, specs)
		if err != nil {
			return repOut{}, err
		}
		oly, err := workload.Run(olympian, specs)
		sp.add("run", t)
		if err != nil {
			return repOut{}, err
		}
		t = sp.now()
		var vs []string
		for _, res := range []*workload.Result{van, oly} {
			if n := len(res.Finishes.Records); n != clients || len(res.FailedClients) > 0 || res.Degraded.BatchFailures > 0 {
				vs = append(vs, fmt.Sprintf("%s: %d of %d clients finished, %d failed batches",
					res.Kind, n, clients, res.Degraded.BatchFailures))
			}
		}
		sv, so := van.Finishes.Summary(), oly.Finishes.Summary()
		sp.add("check", t)
		completed := (len(van.Finishes.Records) + len(oly.Finishes.Records)) * batches
		return repOut{
			requests: 2 * jobs,
			modeled: modeled{
				Requests:       2 * jobs,
				Completed:      completed,
				Failed:         2*jobs - completed,
				VirtualNs:      int64(van.Elapsed + oly.Elapsed),
				Switches:       oly.Switches,
				VanillaSpread:  sv.Spread(),
				OlympianSpread: so.Spread(),
				Overhead:       (so.Max - sv.Max) / sv.Max,
			},
			counts: map[string]float64{
				"gpu.kernels":           float64(van.Device.KernelsRun + oly.Device.KernelsRun),
				"executor.tasks":        float64(van.Pool.Completed + oly.Pool.Completed),
				"executor.pool_delayed": float64(van.Pool.Delayed + oly.Pool.Delayed),
				"core.switches":         float64(oly.Switches),
				"core.quanta":           float64(len(oly.Quanta)),
			},
			violations: vs,
		}, nil
	}, nil
}

// poissonGaps draws n exponential inter-arrival gaps at rate arrivals per
// second of virtual time.
func poissonGaps(rng *rand.Rand, n int, rate float64) []time.Duration {
	gaps := make([]time.Duration, n)
	for i := range gaps {
		gaps[i] = time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
	}
	return gaps
}

// fleetDevices is the size of both fleet workloads; fleetBatch the largest
// batch their serving front-ends assemble.
const (
	fleetDevices = 8
	fleetBatch   = 16
)

// setupFleet prepares an open-loop Poisson train of model.Micro interactive
// requests at 2k req/s per device into an 8-device sharded fleet. Observed
// adds crash-with-restart on every other device, stalls on all of them,
// hedging, deadlines, a bounded queue, and the obs recorder with telemetry.
func setupFleet(seed int64, requests int, observed bool) (repFunc, error) {
	for b := 1; b <= fleetBatch; b++ {
		if _, err := model.BuildUncached(model.Micro, b); err != nil {
			return nil, err
		}
	}
	gaps := poissonGaps(rand.New(rand.NewSource(seed)), requests, 2000*fleetDevices)
	cfg := cluster.Config{
		Seed:         seed,
		Devices:      make([]gpu.Spec, fleetDevices),
		Route:        cluster.LeastOutstanding,
		MaxBatch:     fleetBatch,
		BatchTimeout: 2 * time.Millisecond,
		Slim:         true,
		Workers:      1,
	}
	for i := range cfg.Devices {
		cfg.Devices[i] = gpu.GTX1080Ti
	}
	if observed {
		cfg.Faults = make([]*faults.Plan, fleetDevices)
		for i := range cfg.Faults {
			plan := &faults.Plan{StallEvery: 10 * time.Millisecond, StallDur: time.Millisecond}
			if i%2 == 0 {
				plan.CrashEvery = 20 * time.Millisecond
				plan.CrashRecovery = 5 * time.Millisecond
				plan.MaxCrashes = 3
			}
			cfg.Faults[i] = plan
		}
		cfg.HedgeDelay = 3 * time.Millisecond
		cfg.Deadline = 25 * time.Millisecond
		cfg.MaxQueue = 256
	}
	return func(sp *spanLog) (repOut, error) {
		cfg := cfg
		var rec *obs.Recorder
		if observed {
			rec = obs.NewRecorder()
			cfg.Obs = rec
			cfg.Telemetry = &telemetry.Config{SLOs: telemetry.DefaultServingSLOs(), Rules: telemetry.DefaultRules()}
		}
		t := sp.now()
		c, err := cluster.NewSharded(cfg, cluster.Sharded)
		sp.add("new", t)
		if err != nil {
			return repOut{}, err
		}
		env := c.FrontEnv()
		submitErr := replay(env, gaps, sp, func(int) error {
			_, err := c.SubmitEvent(model.Micro, overload.Interactive)
			return err
		})
		t = sp.now()
		err = c.Run()
		sp.add("run", t)
		if err == nil {
			err = submitErr()
		}
		if err != nil {
			c.Shutdown()
			return repOut{}, err
		}
		t = sp.now()
		st := c.Stats()
		sp.add("stats", t)
		c.Shutdown()
		t = sp.now()
		vs := invariant.CheckSharded(c, st)
		sp.add("check", t)

		out := repOut{
			requests: st.Requests,
			modeled: modeled{
				DecisionHash: hexHash(st.DecisionHash),
				Requests:     st.Requests,
				Completed:    st.Completed,
				Failed:       st.Failed,
				// Device-level tallies: a shed attempt may still complete
				// after failover, so these do not add up to Failed.
				Shed:      st.Degraded.Drops + st.Degraded.AdmissionSheds + st.Degraded.Evictions,
				Expired:   st.Degraded.Expired,
				VirtualNs: int64(env.Now()),
			},
			counts: map[string]float64{
				"cluster.decisions":  float64(st.Decisions),
				"cluster.failovers":  float64(st.Failovers),
				"cluster.hedges":     float64(st.Hedges),
				"cluster.hedge_wins": float64(st.HedgeWins),
			},
		}
		for i, ds := range st.PerDevice {
			out.counts["serving.batches"] += float64(ds.Batches)
			out.counts["gpu.kernels"] += float64(c.Server(i).Device().Stats().KernelsRun)
		}
		for _, v := range vs {
			out.violations = append(out.violations, v.String())
		}
		if observed {
			t = sp.now()
			c.FinishObs("fleet-chaos-observed")
			tl := c.Timeline()
			sp.add("timeline", t)
			h := fnv.New64a()
			t = sp.now()
			err := trace.WriteLifecycleTimeline(h, rec.Trace(), tl)
			sp.add("trace_write", t)
			if err != nil {
				return repOut{}, err
			}
			out.modeled.TraceHash = hexHash(h.Sum64())
			out.counts["obs.spans"] = float64(len(rec.Spans()))
			out.counts["telemetry.ticks"] = float64(tl.Ticks)
		}
		return out, nil
	}, nil
}

// replay schedules an arrival train on env: arrival i fires gaps[i] after
// arrival i-1 and calls submit(i) inside a "submit" span. Each arrival
// schedules the next, so a long train holds one pending event. The returned
// function reports the first error submit returned.
func replay(env *sim.Env, gaps []time.Duration, sp *spanLog, submit func(i int) error) func() error {
	var first error
	next := 0
	var arrive func()
	arrive = func() {
		t := sp.now()
		err := submit(next)
		sp.add("submit", t)
		if err != nil && first == nil {
			first = err
		}
		if next++; next < len(gaps) {
			env.Schedule(gaps[next], arrive)
		}
	}
	env.Schedule(gaps[0], arrive)
	return func() error { return first }
}

// llmRequest is one generated LLM request.
type llmRequest struct {
	class          overload.Class
	prompt, output int
}

// setupLLM prepares an open-loop Poisson train at 10k req/s (4x the
// llmoverload experiment's base rate) of chat-shaped requests, 30%
// interactive, into 2 prefill and 2 KV-starved decode replicas with the
// full overload stack armed, as in that experiment's cells.
func setupLLM(seed int64, requests int) (repFunc, error) {
	cfg := cluster.LLMConfig{
		Seed:            seed,
		Model:           model.LLMTiny,
		PrefillReplicas: 2,
		DecodeReplicas:  2,
		MaxQueue:        16,
		Route:           cluster.LeastKVPressure,
		TTFTDeadline:    25 * time.Millisecond,
		TPOTBudget:      5 * time.Millisecond,
		Admission:       &overload.TokenAIMDConfig{Initial: 2048, Min: 256, Max: 4096},
		KVWatermark:     0.85,
		DegradedTail:    8,
		MaxRetries:      3,
		Slim:            true,
		Workers:         1,
	}
	weights, err := model.LLMWeightsBytes(model.LLMTiny)
	if err != nil {
		return nil, err
	}
	cfg.DecodeSpec = gpu.GTX1080Ti
	cfg.DecodeSpec.Name = "starved-decode"
	cfg.DecodeSpec.MemoryBytes = weights + (768 << 10)
	for _, spec := range []gpu.Spec{gpu.GTX1080Ti, cfg.DecodeSpec} {
		if _, err := profiler.ProfileLLM(cfg.Model, spec, seed); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	dist := llm.LengthDist{Name: "chat", PromptMin: 16, PromptMax: 256, OutputMin: 16, OutputMax: 128}
	gaps := poissonGaps(rng, requests, 10_000)
	reqs := make([]llmRequest, requests)
	for i := range reqs {
		r := llmRequest{class: overload.Batch}
		r.prompt, r.output = dist.Sample(rng)
		if rng.Float64() < 0.3 {
			r.class = overload.Interactive
		}
		reqs[i] = r
	}
	return func(sp *spanLog) (repOut, error) {
		t := sp.now()
		c, err := cluster.NewLLM(cfg, cluster.Sharded)
		sp.add("new", t)
		if err != nil {
			return repOut{}, err
		}
		env := c.FrontEnv()
		submitErr := replay(env, gaps, sp, func(i int) error {
			_, err := c.SubmitEvent(reqs[i].class, reqs[i].prompt, reqs[i].output)
			return err
		})
		t = sp.now()
		err = c.Run()
		sp.add("run", t)
		c.Shutdown()
		if err == nil {
			err = submitErr()
		}
		if err != nil {
			return repOut{}, err
		}
		t = sp.now()
		st := c.Stats()
		sp.add("stats", t)
		t = sp.now()
		vs := invariant.CheckLLM(c, st)
		sp.add("check", t)
		out := repOut{
			requests: st.Requests,
			modeled: modeled{
				DecisionHash: hexHash(st.DecisionHash),
				Requests:     st.Requests,
				Completed:    st.Completed,
				Failed:       st.Failed,
				Shed:         st.Shed,
				Expired:      st.Expired,
				Tokens:       st.TokensDelivered,
				VirtualNs:    int64(env.Now()),
			},
			counts: map[string]float64{
				"cluster.decisions": float64(st.Decisions),
				"cluster.failovers": float64(st.Failovers),
				"llm.tokens":        float64(st.TokensDelivered),
				"llm.preemptions":   float64(st.Preemptions),
				"llm.transfers":     float64(st.Transfers),
				"llm.retries":       float64(st.Retries),
				"overload.sheds":    float64(st.Shed),
			},
		}
		for i := 0; i < c.Devices(); i++ {
			out.counts["gpu.kernels"] += float64(c.Server(i).Device().Stats().KernelsRun)
		}
		for _, v := range vs {
			out.violations = append(out.violations, v.String())
		}
		return out, nil
	}, nil
}

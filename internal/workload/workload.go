// Package workload is the experiment harness: it assembles a simulated
// serving deployment (GPU device, execution engine, optional Olympian
// scheduler), runs a set of closed-loop clients against it, and collects
// the metrics the paper's evaluation reports — per-client finish times,
// per-quantum GPU durations, scheduling intervals, utilization, and
// thread-pool pressure.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"olympian/internal/core"
	"olympian/internal/executor"
	"olympian/internal/faults"
	"olympian/internal/gpu"
	"olympian/internal/graph"
	"olympian/internal/metrics"
	"olympian/internal/model"
	"olympian/internal/obs"
	"olympian/internal/overload"
	"olympian/internal/par"
	"olympian/internal/profiler"
	"olympian/internal/sim"
	"olympian/internal/telemetry"
)

// SchedulerKind selects the middleware scheduler for a run.
type SchedulerKind int

const (
	// Vanilla is unmodified TF-Serving: the GPU driver's FIFO is the only
	// scheduler.
	Vanilla SchedulerKind = iota + 1
	// Olympian is cost-based middleware time-slicing (the paper's system).
	Olympian
	// WallClockSlicing is the Figure 19 strawman: time-slicing driven by a
	// CPU timer instead of profiled GPU usage.
	WallClockSlicing
	// KernelSlicing is the related-work baseline: Olympian's scheduler over
	// kernels split into sub-kernel slices, paying a preemption penalty per
	// slice — isolation at the cost the paper's related work reports.
	KernelSlicing
)

// String names the scheduler kind.
func (k SchedulerKind) String() string {
	switch k {
	case Vanilla:
		return "tf-serving"
	case Olympian:
		return "olympian"
	case WallClockSlicing:
		return "cpu-timer"
	case KernelSlicing:
		return "kernel-slicing"
	default:
		return fmt.Sprintf("SchedulerKind(%d)", int(k))
	}
}

// ModelRef identifies a (model, batch) graph.
type ModelRef struct {
	Model string
	Batch int
}

// ClientSpec describes one closed-loop client: it submits Batches input
// batches sequentially, each a full Session::Run of the model.
type ClientSpec struct {
	Model    string
	Batch    int
	Batches  int
	Weight   int
	Priority int
	// ArriveAt delays the client's first request.
	ArriveAt time.Duration
	// Deadline, if nonzero, is each batch's relative completion target;
	// deadline-aware policies (EDF) order jobs by it.
	Deadline time.Duration
}

// Ref returns the client's model reference.
func (c ClientSpec) Ref() ModelRef { return ModelRef{Model: c.Model, Batch: c.Batch} }

// Key converts the reference to a profile-store key.
func (r ModelRef) Key() profiler.Key { return profiler.Key{Model: r.Model, Batch: r.Batch} }

// Config parameterises a run.
type Config struct {
	// Seed drives all randomness in the run.
	Seed int64
	// Spec is the GPU platform (defaults to GTX1080Ti).
	Spec gpu.Spec
	// Kind selects the scheduler (defaults to Vanilla).
	Kind SchedulerKind
	// Policy is the Olympian scheduling policy (defaults to fair).
	Policy core.Policy
	// Quantum is Q. Zero means DefaultQuantum.
	Quantum time.Duration
	// SwitchCost overrides the default gang-switch cost.
	SwitchCost time.Duration
	// Jitter is node-duration noise (defaults to 0.03).
	Jitter float64
	// ThreadPoolSize caps each device's shared pool (defaults to the engine
	// default).
	ThreadPoolSize int
	// GPUs is the number of devices the serving process drives (the paper's
	// §7 multi-GPU extension); values ≤ 1 mean one. Every device gets its
	// own engine, scheduler and fault injector, and each client is placed
	// on the device with the least model memory assigned so far.
	GPUs int
	// Profiles supplies precomputed offline profiles; missing entries are
	// profiled on the fly for Olympian runs (without being cached back, so a
	// run's results never depend on which runs preceded it). The store is
	// safe to share across concurrent RunMany runs.
	Profiles *profiler.Store
	// ProfileOverrides lets an experiment substitute predicted profiles
	// (e.g. linear-model outputs, Figure 20). Applied after Profiles.
	ProfileOverrides map[ModelRef]*profiler.Result
	// ReserveMemory makes each client reserve model memory on the device
	// for the duration of the run; clients that do not fit fail.
	ReserveMemory bool
	// QueueOnMemory, with ReserveMemory, makes clients wait for memory to
	// free instead of failing admission.
	QueueOnMemory bool
	// MaxVirtual aborts the run if virtual time exceeds this (a progress
	// guard for deadlock-prone configurations). Zero disables.
	MaxVirtual time.Duration
	// Faults, when non-nil and enabled, injects deterministic failures
	// (seeded by Seed) into the device and executor; clients retry failed
	// batches up to MaxBatchRetries times, spending a shared retry budget.
	Faults *faults.Plan
	// RetryBudget caps retries across ALL clients in the run: each retry
	// spends a token, each successful batch refunds one. The shared pool
	// prevents retry storms — under correlated failure the budget drains
	// and clients fail fast instead of amplifying load. Zero means
	// DefaultRetryBudget; negative disables retries entirely.
	RetryBudget int
	// RetryBackoff is the base for exponential client backoff between
	// retry attempts, jittered deterministically from the fault injector's
	// retry stream (zero: overload's 1ms default).
	RetryBackoff time.Duration
	// Obs, when non-nil, records the run's lifecycle trace (client
	// batches, executor jobs, kernels, retries) and its metrics. The
	// recorder is bound to the run's environment at start; one recorder
	// may observe several sequential runs. Nil keeps the zero-cost
	// disabled path. A run with Obs set must not execute concurrently
	// with other runs sharing the recorder; RunMany keeps its parallelism
	// by recording each run into a private child recorder and splicing
	// the children back in spec order.
	Obs *obs.Recorder
	// Telemetry, when non-nil alongside Obs, scrapes the run's registry on
	// the virtual clock every Interval of simulated time and evaluates the
	// configured SLO burn-rate rules; the merged timeline lands in
	// Result.Timeline and its alerts are logged back onto Obs. Ignored when
	// Obs is nil. The sampler only reads registry state at heartbeat
	// boundaries, so enabling it never perturbs simulated results.
	Telemetry *telemetry.Config
}

// MaxBatchRetries bounds how often a closed-loop client re-submits a
// failed batch before giving up on it.
const MaxBatchRetries = 3

// DefaultRetryBudget is the run-wide retry token pool when Config leaves
// RetryBudget zero.
const DefaultRetryBudget = 32

// DefaultQuantum is used when a run does not choose Q via profiling.
const DefaultQuantum = 1200 * time.Microsecond

// Result aggregates a run's measurements. Device and Pool describe device
// 0; the other fields cover every device.
type Result struct {
	// Kind echoes the scheduler used.
	Kind SchedulerKind
	// Finishes holds each successful client's completion time.
	Finishes *metrics.FinishSet
	// Quanta are Olympian's scheduling-interval records (empty for
	// vanilla), concatenated in device order.
	Quanta []core.QuantumRecord
	// Switches counts token hand-offs, summed over devices.
	Switches int
	// Elapsed is the virtual time at which the last client finished.
	Elapsed time.Duration
	// Utilization is GPU busy time divided by elapsed time (the
	// nvidia-smi-style metric the paper reports), averaged over devices.
	Utilization float64
	// SMEfficiency is occupancy-weighted GPU time divided by elapsed time:
	// the fraction of SM capacity actually used, averaged over devices.
	SMEfficiency float64
	// PerGPU reports each device's placed clients and utilization.
	PerGPU []GPUShare
	// Pool reports thread-pool pressure.
	Pool executor.PoolStats
	// Device reports GPU counters.
	Device gpu.Stats
	// FailedClients lists clients that could not be admitted (memory).
	FailedClients []int
	// Quantum echoes the Q used by the scheduler (zero for vanilla).
	Quantum time.Duration
	// Degraded tallies injected faults and the recovery work they forced.
	Degraded metrics.Degraded
	// Timeline is the run's merged virtual-time telemetry (nil unless
	// Config.Telemetry and Config.Obs were both set).
	Timeline *telemetry.Timeline
	// Handoffs counts the simulator's switches into process carriers
	// (sim.Env.Handoffs): the cost of the run to the simulator, not a
	// modeled quantity.
	Handoffs uint64
}

// GPUShare is one device's share of a run.
type GPUShare struct {
	Clients     int
	Utilization float64
}

// device is one GPU of a run with the engine and scheduler driving it, and
// the model memory placed on it.
type device struct {
	gpu   *gpu.Device
	inj   *faults.Injector
	sched *core.Scheduler
	eng   *executor.Engine
	mem   int64
}

// Run executes the workload and returns its measurements.
func Run(cfg Config, clients []ClientSpec) (*Result, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("workload: no clients")
	}
	if cfg.Spec.Name == "" {
		cfg.Spec = gpu.GTX1080Ti
	}
	if cfg.Kind == 0 {
		cfg.Kind = Vanilla
	}
	if cfg.Kind < Vanilla || cfg.Kind > KernelSlicing {
		return nil, fmt.Errorf("workload: unknown scheduler kind %d", cfg.Kind)
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = DefaultQuantum
	}
	if cfg.Jitter == 0 {
		cfg.Jitter = 0.03
	}
	if cfg.SwitchCost == 0 {
		cfg.SwitchCost = core.DefaultSwitchCost
	}

	graphs, err := buildGraphs(clients)
	if err != nil {
		return nil, err
	}
	var profiles map[*graph.Graph]*profiler.Result
	if cfg.Kind == Olympian || cfg.Kind == KernelSlicing {
		if profiles, err = resolveProfiles(graphs, cfg); err != nil {
			return nil, err
		}
	}

	env := sim.NewEnv(cfg.Seed)
	cfg.Obs.Bind(env, "run:"+cfg.Kind.String())
	var sampler *telemetry.Sampler
	if cfg.Telemetry != nil {
		sampler = telemetry.NewSampler(*cfg.Telemetry, cfg.Obs.Registry())
		sampler.Bind(env)
	}
	devs := make([]device, max(cfg.GPUs, 1))
	for d := range devs {
		devs[d] = newDevice(env, cfg, d, profiles)
	}

	retryTokens := cfg.RetryBudget
	if retryTokens == 0 {
		retryTokens = DefaultRetryBudget
	} else if retryTokens < 0 {
		retryTokens = 0
	}
	budget := overload.NewRetryBudget(float64(retryTokens), 1)
	res := &Result{
		Kind:     cfg.Kind,
		Finishes: &metrics.FinishSet{Label: cfg.Kind.String()},
		PerGPU:   make([]GPUShare, len(devs)),
	}
	reg := cfg.Obs.Registry()
	reg.CounterView("olympian_client_retries_total", "Client batch retries.", &res.Degraded.BatchRetries)
	if cfg.Obs != nil {
		budget.SetObserver(budgetObserver{cfg.Obs})
		reg.CounterView("olympian_overload_retry_denied_total", "Retries refused by the budget.", &res.Degraded.RetryDenied)
	}

	if cfg.Kind != Vanilla {
		res.Quantum = cfg.Quantum
	}
	memFreed := env.NewCond("memory-admission")
	var lastFinish sim.Time
	for i, spec := range clients {
		i, spec := i, spec
		g := graphs[spec.Ref()]
		// buildGraphs has already rejected unknown models.
		bytes, _ := model.MemoryBytes(spec.Model, spec.Batch)
		target := 0
		for d := 1; d < len(devs); d++ {
			if devs[d].mem < devs[target].mem {
				target = d
			}
		}
		devs[target].mem += bytes
		res.PerGPU[target].Clients++
		dev, eng, inj := devs[target].gpu, devs[target].eng, devs[target].inj
		env.Go(fmt.Sprintf("client-%d", i), func(p *sim.Proc) {
			if cfg.ReserveMemory {
				for dev.Alloc(bytes) != nil {
					if !cfg.QueueOnMemory {
						res.FailedClients = append(res.FailedClients, i)
						return
					}
					memFreed.Wait(p)
				}
				defer func() {
					dev.Free(bytes)
					memFreed.Broadcast()
				}()
			}
			if spec.ArriveAt > 0 {
				p.Sleep(spec.ArriveAt)
			}
			batches := spec.Batches
			if batches <= 0 {
				batches = 1
			}
			for b := 0; b < batches; b++ {
				span := cfg.Obs.StartSpan(obs.LayerHarness, "client_batch", i, obs.NoClass, 0, int64(b))
				for attempt := 0; ; attempt++ {
					job := eng.NewJob(i, g)
					if spec.Weight > 0 {
						job.Weight = spec.Weight
					}
					job.Priority = spec.Priority
					if spec.Deadline > 0 {
						job.Deadline = p.Now().Add(spec.Deadline)
					}
					eng.Run(p, job)
					if job.Err() == nil {
						budget.OnSuccess()
						break
					}
					if attempt >= MaxBatchRetries {
						res.Degraded.BatchFailures++
						break
					}
					if !budget.Allow() {
						res.Degraded.RetryDenied++
						res.Degraded.BatchFailures++
						break
					}
					res.Degraded.BatchRetries++
					cfg.Obs.Instant(obs.LayerHarness, "client_retry", i, obs.NoClass, 0, int64(attempt+1))
					p.Sleep(overload.Backoff(cfg.RetryBackoff, attempt, 0.5, inj.RetryJitter()))
				}
				cfg.Obs.EndSpan(span)
			}
			finish := time.Duration(p.Now())
			res.Finishes.Add(i, spec.Model, finish)
			if p.Now() > lastFinish {
				lastFinish = p.Now()
			}
		})
	}

	var runErr error
	if cfg.MaxVirtual > 0 {
		runErr = env.RunUntil(sim.Time(cfg.MaxVirtual))
		if runErr == nil && len(res.Finishes.Records)+len(res.FailedClients) < len(clients) {
			runErr = fmt.Errorf("workload: run exceeded %v with %d/%d clients finished",
				cfg.MaxVirtual, len(res.Finishes.Records), len(clients))
		}
	} else {
		runErr = env.Run()
	}
	env.Shutdown()
	res.Handoffs = env.Handoffs()
	res.Elapsed = time.Duration(lastFinish)
	res.Device = devs[0].gpu.Stats()
	res.Pool = devs[0].eng.Pool().Stats()
	for _, d := range devs {
		res.Degraded.KernelRetries += d.eng.KernelRetries()
		if d.inj != nil {
			c := d.inj.Counters()
			res.Degraded.KernelFaults += c.KernelFaults
			res.Degraded.DeviceStalls += c.DeviceStalls
			res.Degraded.JobAborts += c.JobAborts
		}
		if d.sched != nil {
			// Records already returns a copy; keep the first device's as is.
			if res.Quanta == nil {
				res.Quanta = d.sched.Records()
			} else {
				res.Quanta = append(res.Quanta, d.sched.Records()...)
			}
			res.Switches += d.sched.Switches()
		}
	}
	if sampler != nil {
		res.Timeline = telemetry.Merge(*cfg.Telemetry, []*telemetry.Sampler{sampler})
		res.Timeline.LogAlerts(cfg.Obs)
	}
	if runErr != nil {
		return res, fmt.Errorf("workload %s: %w", cfg.Kind, runErr)
	}

	if res.Elapsed > 0 {
		elapsed := res.Elapsed.Seconds()
		for i, d := range devs {
			u := d.gpu.TotalBusy().Seconds() / elapsed
			res.PerGPU[i].Utilization = u
			res.Utilization += u
			res.SMEfficiency += d.gpu.OccupancyTime().Seconds() / elapsed
		}
		res.Utilization /= float64(len(devs))
		res.SMEfficiency /= float64(len(devs))
	}
	return res, nil
}

// newDevice builds device d of a run: its GPU, its fault injector (device 0
// seeded by cfg.Seed, the others offset from it as the cluster fleets do),
// its scheduler for every kind but vanilla, and its execution engine.
// Device 0 runs cfg.Policy itself; the others get fresh policies of the
// same kind.
func newDevice(env *sim.Env, cfg Config, d int, profiles map[*graph.Graph]*profiler.Result) device {
	dv := device{gpu: gpu.New(env, cfg.Spec)}
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		dv.inj = faults.New(cfg.Seed+int64(d)*1031, *cfg.Faults)
		dv.gpu.InjectFaults(dv.inj)
	}
	var hooks executor.Hooks = executor.NopHooks{}
	if cfg.Kind != Vanilla {
		policy := cfg.Policy
		if d > 0 {
			policy = policyClone(policy)
		}
		mode := core.CostBased
		if cfg.Kind == WallClockSlicing {
			mode = core.WallClock
		}
		dv.sched = core.New(env, dv.gpu, core.Config{
			Policy:     policy,
			Quantum:    cfg.Quantum,
			SwitchCost: cfg.SwitchCost,
			Mode:       mode,
		})
		for g, prof := range profiles {
			dv.sched.SetProfile(g, prof.JobProfile(cfg.Quantum))
		}
		hooks = dv.sched
	}
	engCfg := executor.Config{
		ThreadPoolSize: cfg.ThreadPoolSize,
		Jitter:         cfg.Jitter,
		Faults:         dv.inj,
		Obs:            cfg.Obs,
		Device:         d,
	}
	if cfg.Kind == KernelSlicing {
		// Related-work parameters: slices near the quantum scale, with the
		// hundreds-of-microseconds context-switch cost the paper cites for
		// preempting a massively parallel GPU context.
		engCfg.KernelSliceDur = 300 * time.Microsecond
		engCfg.KernelSlicePenalty = 150 * time.Microsecond
	}
	dv.eng = executor.New(env, dv.gpu, engCfg, hooks)
	return dv
}

// policyClone returns a fresh policy instance of the same kind, since
// stateful policies must not be shared across schedulers.
func policyClone(p core.Policy) core.Policy {
	if p == nil {
		return core.NewFair()
	}
	switch p.Name() {
	case "weighted-fair":
		return core.NewWeightedFair()
	case "priority":
		return core.NewPriority()
	case "lottery":
		return core.NewLottery()
	case "deficit-rr":
		return core.NewDeficitRR()
	case "edf":
		return core.NewEDF()
	default:
		return core.NewFair()
	}
}

// budgetObserver adapts the run's shared retry budget onto the lifecycle
// recorder: every denial becomes an overload-layer instant. Only attached
// when recording is on.
type budgetObserver struct{ rec *obs.Recorder }

func (o budgetObserver) LimitChanged(float64) {}

func (o budgetObserver) RetryDenied() {
	o.rec.Instant(obs.LayerOverload, "retry_denied", obs.NoReq, obs.NoClass, 0, 0)
}

// buildGraphs constructs one shared graph per distinct model reference.
func buildGraphs(clients []ClientSpec) (map[ModelRef]*graph.Graph, error) {
	graphs := make(map[ModelRef]*graph.Graph)
	for _, c := range clients {
		ref := c.Ref()
		if _, ok := graphs[ref]; ok {
			continue
		}
		g, err := model.Build(ref.Model, ref.Batch)
		if err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		graphs[ref] = g
	}
	return graphs, nil
}

// resolveProfiles finds every graph's offline profile: an override, the
// shared store, or else a fresh on-the-fly profile.
func resolveProfiles(graphs map[ModelRef]*graph.Graph, cfg Config) (map[*graph.Graph]*profiler.Result, error) {
	out := make(map[*graph.Graph]*profiler.Result, len(graphs))
	for ref, g := range graphs {
		prof := cfg.ProfileOverrides[ref]
		if prof == nil && cfg.Profiles != nil {
			if p, ok := cfg.Profiles.Get(ref.Key()); ok {
				prof = p
			}
		}
		if prof == nil {
			// On-the-fly profile: seeded by this run, so it is deliberately
			// NOT written back to the shared store — caching it under
			// (model, batch) alone would make other runs' results depend on
			// execution order.
			p, err := profiler.ProfileSolo(g, profiler.Options{
				Spec: cfg.Spec, Seed: cfg.Seed + 1000, Jitter: 0,
			})
			if err != nil {
				return nil, err
			}
			prof = p
		}
		out[g] = prof
	}
	return out, nil
}

// Profile computes (and caches into dst) offline profiles for the given
// refs; experiments use it to share profiling work across runs. Distinct
// refs are profiled in parallel; each profile is deterministic in
// (ref, spec, seed), so the store contents do not depend on timing.
func Profile(dst *profiler.Store, refs []ModelRef, spec gpu.Spec, seed int64) error {
	distinct := refs[:0:0]
	seen := make(map[ModelRef]bool, len(refs))
	for _, ref := range refs {
		if !seen[ref] {
			seen[ref] = true
			distinct = append(distinct, ref)
		}
	}
	return par.For(len(distinct), func(i int) error {
		ref := distinct[i]
		_, err := dst.GetOrCompute(ref.Key(), func() (*profiler.Result, error) {
			g, err := model.Build(ref.Model, ref.Batch)
			if err != nil {
				return nil, err
			}
			return profiler.ProfileSolo(g, profiler.Options{Spec: spec, Seed: seed, Jitter: 0})
		})
		return err
	})
}

// PoissonClients generates an open-loop arrival process (a paper §7
// "realistic workloads" extension): single-batch requests of the given
// model arrive with exponential interarrival times at the given rate until
// horizon.
func PoissonClients(modelName string, batch int, ratePerSec float64, horizon time.Duration, seed int64) []ClientSpec {
	rng := rand.New(rand.NewSource(seed))
	var out []ClientSpec
	t := time.Duration(0)
	for {
		gap := time.Duration(rng.ExpFloat64() / ratePerSec * float64(time.Second))
		t += gap
		if t >= horizon {
			return out
		}
		out = append(out, ClientSpec{
			Model:    modelName,
			Batch:    batch,
			Batches:  1,
			ArriveAt: t,
		})
	}
}

// Latencies returns per-client response times (finish minus arrival) for a
// result produced from arrival-stamped clients.
func Latencies(res *metrics.FinishSet, clients []ClientSpec) []time.Duration {
	out := make([]time.Duration, 0, len(res.Records))
	for _, rec := range res.Records {
		out = append(out, rec.Finish-clients[rec.Client].ArriveAt)
	}
	return out
}

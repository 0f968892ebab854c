package workload

import (
	"fmt"
	"math/rand"
	"time"

	"olympian/internal/core"
	"olympian/internal/executor"
	"olympian/internal/gpu"
	"olympian/internal/metrics"
	"olympian/internal/model"
	"olympian/internal/sim"
)

// MultiConfig parameterises a multi-GPU run (a paper §7 extension): the
// serving process drives several devices, each with its own engine and
// Olympian scheduler, and clients are placed on the device with the most
// free memory at arrival.
type MultiConfig struct {
	// Config is the per-device configuration (Seed, Kind, Policy, Quantum,
	// Jitter, profiles).
	Config
	// GPUs is the number of devices (default 1).
	GPUs int
}

// MultiResult aggregates a multi-GPU run.
type MultiResult struct {
	// Finishes holds each client's completion time.
	Finishes *metrics.FinishSet
	// PerGPU reports clients placed and utilization per device.
	PerGPU []GPUShare
	// Elapsed is the virtual time of the last completion.
	Elapsed time.Duration
	// Switches counts token hand-offs across all schedulers.
	Switches int
}

// GPUShare is one device's share of a multi-GPU run.
type GPUShare struct {
	Clients     int
	Utilization float64
	MemoryPeak  int64
}

// RunMulti executes clients across cfg.GPUs devices. Placement is
// least-allocated-memory-first, the natural policy for weight-heavy DNN
// serving.
func RunMulti(cfg MultiConfig, clients []ClientSpec) (*MultiResult, error) {
	if cfg.GPUs <= 0 {
		cfg.GPUs = 1
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("workload: no clients")
	}
	if cfg.Spec.Name == "" {
		cfg.Spec = gpu.GTX1080Ti
	}
	if cfg.Kind == 0 {
		cfg.Kind = Vanilla
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

	env := sim.NewEnv(cfg.Seed)
	devs := make([]*gpu.Device, cfg.GPUs)
	engines := make([]*executor.Engine, cfg.GPUs)
	scheds := make([]*core.Scheduler, cfg.GPUs)
	memAssigned := make([]int64, cfg.GPUs)
	placed := make([]int, cfg.GPUs)
	for i := range devs {
		devs[i] = gpu.New(env, cfg.Spec)
		var hooks executor.Hooks = executor.NopHooks{}
		if cfg.Kind == Olympian {
			scheds[i] = core.New(env, devs[i], core.Config{
				Policy:     policyClone(cfg.Policy),
				Quantum:    cfg.Quantum,
				SwitchCost: cfg.SwitchCost,
			})
			sub := cfg.Config
			if err := attachProfiles(scheds[i], graphs, sub); err != nil {
				return nil, err
			}
			hooks = scheds[i]
		}
		engines[i] = executor.New(env, devs[i], executor.Config{
			ThreadPoolSize: cfg.ThreadPoolSize,
			Jitter:         cfg.Jitter,
		}, hooks)
	}

	res := &MultiResult{Finishes: &metrics.FinishSet{Label: "multi-gpu"}}
	var lastFinish sim.Time
	for i, spec := range clients {
		i, spec := i, spec
		bytes, err := model.MemoryBytes(spec.Model, spec.Batch)
		if err != nil {
			return nil, err
		}
		// Least-allocated placement at submission time.
		target := 0
		for d := 1; d < cfg.GPUs; d++ {
			if memAssigned[d] < memAssigned[target] {
				target = d
			}
		}
		memAssigned[target] += bytes
		placed[target]++
		eng := engines[target]
		g := graphs[spec.Ref()]
		env.Go(fmt.Sprintf("client-%d", i), func(p *sim.Proc) {
			if spec.ArriveAt > 0 {
				p.Sleep(spec.ArriveAt)
			}
			batches := spec.Batches
			if batches <= 0 {
				batches = 1
			}
			for b := 0; b < batches; b++ {
				job := eng.NewJob(i, g)
				if spec.Weight > 0 {
					job.Weight = spec.Weight
				}
				job.Priority = spec.Priority
				if spec.Deadline > 0 {
					job.Deadline = p.Now().Add(spec.Deadline)
				}
				eng.Run(p, job)
			}
			res.Finishes.Add(i, spec.Model, time.Duration(p.Now()))
			if p.Now() > lastFinish {
				lastFinish = p.Now()
			}
		})
	}
	runErr := env.Run()
	env.Shutdown()
	if runErr != nil {
		return res, fmt.Errorf("workload multi-gpu: %w", runErr)
	}
	res.Elapsed = time.Duration(lastFinish)
	for i, dev := range devs {
		share := GPUShare{Clients: placed[i], MemoryPeak: memAssigned[i]}
		if res.Elapsed > 0 {
			share.Utilization = dev.TotalBusy().Seconds() / res.Elapsed.Seconds()
		}
		res.PerGPU = append(res.PerGPU, share)
		if scheds[i] != nil {
			res.Switches += scheds[i].Switches()
		}
	}
	return res, nil
}

// policyClone returns a fresh policy instance of the same kind, since
// stateful policies must not be shared across schedulers.
func policyClone(p core.Policy) core.Policy {
	if p == nil {
		return core.NewFair()
	}
	switch p.Name() {
	case "fair":
		return core.NewFair()
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

package experiments

import (
	"time"

	"olympian/internal/gpu"
	"olympian/internal/model"
	"olympian/internal/obs"
	"olympian/internal/profiler"
	"olympian/internal/telemetry"
	"olympian/internal/workload"
)

// Options scale and seed the experiments.
type Options struct {
	// Quick shrinks workloads (fewer clients, batches and images) so the
	// test suite stays fast; benchmarks run full size.
	Quick bool
	// Seed drives all randomness; defaults to 1.
	Seed int64
	// Profiles caches offline profiles across experiments. Optional; a
	// private store is used when nil. The store is concurrency-safe, so one
	// instance may back parallel runs and repeated experiments.
	Profiles *profiler.Store
	// Obs, when non-nil, records every instrumented run of the experiment
	// onto one lifecycle trace (olympian-sim's -trace-out). Experiments
	// keep their determinism probes un-observed so the trace covers each
	// scenario once. Recording forces observed run batches to execute
	// serially; results are unchanged.
	Obs *obs.Recorder
	// Telemetry, when non-nil alongside Obs, enables the virtual-time
	// telemetry plane on instrumented runs: registries are scraped on the
	// simulated clock and SLO burn-rate rules are evaluated, with the merged
	// timeline landing in Report.Timeline (olympian-sim's -timeline-out).
	// Determinism probes stay un-observed and un-sampled, so the experiments'
	// same-seed identity checks double as zero-perturbation checks.
	Telemetry *telemetry.Config
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Profiles == nil {
		o.Profiles = profiler.NewStore()
	}
	return o
}

// Workload sizing, paper defaults vs quick mode.

func (o Options) clients() int {
	if o.Quick {
		return 4
	}
	return 10
}

func (o Options) batches() int {
	if o.Quick {
		return 3
	}
	return 10
}

func (o Options) batchSize() int {
	if o.Quick {
		return 50
	}
	return 100
}

// scaleBatch shrinks a paper batch size in quick mode.
func (o Options) scaleBatch(b int) int {
	if !o.Quick {
		return b
	}
	s := b / 2
	if s < 10 {
		s = 10
	}
	return s
}

// quantum is the Q the paper's profiler chose for the 10-client homogeneous
// and heterogeneous experiments (~1190us at 2.5% tolerance).
func (o Options) quantum() time.Duration { return 1200 * time.Microsecond }

// complexQuantum is the Q for the 14-client, 7-DNN workload (~1620us at 2%
// tolerance).
func (o Options) complexQuantum() time.Duration { return 1620 * time.Microsecond }

// homogeneous builds n identical Inception clients.
func (o Options) homogeneous(n int) []workload.ClientSpec {
	clients := make([]workload.ClientSpec, n)
	for i := range clients {
		clients[i] = workload.ClientSpec{
			Model:   model.Inception,
			Batch:   o.batchSize(),
			Batches: o.batches(),
		}
	}
	return clients
}

// ensureProfiles fills the shared cache for the given client set.
func (o Options) ensureProfiles(clients []workload.ClientSpec, spec gpu.Spec) error {
	refs := make([]workload.ModelRef, 0, len(clients))
	for _, c := range clients {
		refs = append(refs, c.Ref())
	}
	return workload.Profile(o.Profiles, refs, spec, o.Seed+900)
}

// fill applies the experiment-wide defaults (platform, seed, shared profile
// store, profile warm-up) to one run.
func (o Options) fill(cfg workload.Config, clients []workload.ClientSpec) (workload.Config, error) {
	if cfg.Spec.Name == "" {
		cfg.Spec = gpu.GTX1080Ti
	}
	if cfg.Kind != workload.Vanilla {
		if err := o.ensureProfiles(clients, cfg.Spec); err != nil {
			return cfg, err
		}
	}
	cfg.Profiles = o.Profiles
	if cfg.Seed == 0 {
		cfg.Seed = o.Seed
	}
	cfg.Obs = o.Obs
	return cfg, nil
}

// run executes a workload with the shared profile cache.
func (o Options) run(cfg workload.Config, clients []workload.ClientSpec) (*workload.Result, error) {
	cfg, err := o.fill(cfg, clients)
	if err != nil {
		return nil, err
	}
	return workload.Run(cfg, clients)
}

// runAll executes several runs concurrently (worker pool bounded by
// GOMAXPROCS) and returns their results in input order. Profiles for every
// run are warmed into the shared store first, so the parallel runs only
// read it; results are identical to calling o.run on each spec serially.
func (o Options) runAll(specs []workload.RunSpec) ([]*workload.Result, error) {
	filled := make([]workload.RunSpec, len(specs))
	for i, sp := range specs {
		cfg, err := o.fill(sp.Config, sp.Clients)
		if err != nil {
			return nil, err
		}
		filled[i] = workload.RunSpec{Config: cfg, Clients: sp.Clients}
	}
	return workload.Results(workload.RunMany(filled))
}

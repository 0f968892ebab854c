// Package cluster is the multi-device layer of the reproduction: a fleet of
// simulated GPUs, each fronted by its own Olympian scheduler and serving
// front-end, with the two decision layers a single-device stack never needs —
// placement (which device hosts which model replica, planned by
// internal/planner) and routing (which replica serves each request, chosen by
// a pluggable Router policy).
//
// Failover follows the fault plane: when internal/faults stalls a device's
// driver, the device drains its queued (not yet dispatched) requests with
// serving.ErrDrained and reports the stall to the front-end, which takes the
// device out of rotation and re-dispatches each drained request to a
// surviving replica. Kernels already resident on the stalled device keep
// executing, matching the gpu model. Because every step — stall schedule,
// drain order, re-dispatch order, routing scores — is driven by the
// deterministic simulation kernel, two same-seed runs produce byte-identical
// stats and routing decision fingerprints.
package cluster

import (
	"fmt"
	"time"

	"olympian/internal/core"
	"olympian/internal/faults"
	"olympian/internal/gpu"
	"olympian/internal/metrics"
	"olympian/internal/model"
	"olympian/internal/obs"
	"olympian/internal/overload"
	"olympian/internal/planner"
	"olympian/internal/profiler"
	"olympian/internal/serving"
	"olympian/internal/telemetry"
)

// Config parameterises a cluster.
type Config struct {
	// Seed drives all randomness; per-device seeds are derived from it.
	Seed int64
	// Devices lists the fleet's GPU specs (heterogeneous allowed).
	// Empty means one GTX1080Ti.
	Devices []gpu.Spec
	// Faults optionally injects per-device fault plans; index i applies to
	// device i (nil entries and a short slice leave devices fault-free).
	Faults []*faults.Plan
	// Placement restricts models to planned replicas; nil lets every
	// device serve every model.
	Placement *planner.Placement
	// Route selects the routing policy (default LeastOutstanding).
	Route RoutePolicy
	// MaxBatch, BatchTimeout, MaxQueue, Deadline mirror serving.Config and
	// apply to every device's front-end, each an Olympian stack (fair
	// policy, Q = core.DefaultQuantum).
	MaxBatch     int
	BatchTimeout time.Duration
	MaxQueue     int
	Deadline     time.Duration
	// HedgeDelay, when > 0, arms a hedge timer per request: if the request
	// has not completed after this delay, a duplicate is dispatched to the
	// next-best replica (never one already serving it). First completion
	// wins; the loser is cancelled through the serving layer's cancel path
	// (which reaches the executor's gang abort when the loser's batch is
	// already on the device). Zero disables hedging.
	HedgeDelay time.Duration
	// Admission forwards an AIMD adaptive-admission config to every
	// device's serving front-end (nil = static queue bounds only).
	Admission *overload.AIMDConfig
	// TestStrandDrainNth forwards the serving layer's deliberate drain bug
	// to every device; see serving.Config.TestStrandDrainNth. Test-only.
	TestStrandDrainNth int
	// Profiles caches the offline profiles the cost-weighted router and
	// the placement planner read; a private store is used when nil.
	Profiles *profiler.Store
	// Obs, when non-nil, records the cluster-level request lifecycle
	// (routes, failovers, hedges, loser cancellations) and threads the
	// recorder into every device's serving stack. Nil keeps the zero-cost
	// disabled path.
	Obs *obs.Recorder
	// Telemetry, when non-nil alongside Obs, binds a virtual-clock sampler to
	// every shard (front-end and each device) scraping its shard-child
	// registry each Interval of simulated time; ShardedCluster.Timeline
	// merges them deterministically and evaluates the SLO burn-rate rules.
	// Samplers only read registry state at heartbeat boundaries, so enabling
	// telemetry never changes simulated results, on either engine. Ignored
	// when Obs is nil (there are no registries to scrape).
	Telemetry *telemetry.Config

	// Workers is ignored: the sharded engine runs its windows serially. It
	// stays only because the benchmark's workload definitions still set it.
	Workers int
	// Slim is ignored: no fleet retains its requests or routing decisions.
	// It stays only because the benchmark's workload definitions still set
	// it.
	Slim bool
}

// withDefaults fills zero-valued knobs.
func (cfg Config) withDefaults() Config {
	if len(cfg.Devices) == 0 {
		cfg.Devices = []gpu.Spec{gpu.GTX1080Ti}
	}
	if cfg.Route == 0 {
		cfg.Route = LeastOutstanding
	}
	if cfg.Profiles == nil {
		cfg.Profiles = profiler.NewStore()
	}
	return cfg
}

// maxFailovers caps how often one request is re-dispatched after drains
// before it fails with the drain error.
const maxFailovers = 3

// DefaultH2DBandwidth is the modeled host-to-device copy bandwidth used to
// charge crash-recovery warm-up: ~12 GB/s, PCIe 3.0 x16 sustained.
const DefaultH2DBandwidth = 12e9

// DefaultWarmupBase is the fixed restart overhead of a replica revival
// (driver/runtime re-initialization) before any weights are copied.
const DefaultWarmupBase = 2 * time.Millisecond

// h2dCopy is the time to copy bytes of weights to a device.
func h2dCopy(bytes int64) time.Duration {
	return time.Duration(float64(bytes) / DefaultH2DBandwidth * float64(time.Second))
}

// warmupFor models the cost of resurrecting device: a fixed restart
// overhead plus re-copying the weights of every replica placed there over
// the modeled H2D link. Without a placement plan only the base applies (the
// fleet serves models lazily, so there is nothing definite to pre-copy).
func warmupFor(cfg Config, device int) time.Duration {
	warm := DefaultWarmupBase
	if cfg.Placement == nil {
		return warm
	}
	for _, r := range cfg.Placement.Replicas {
		if r.Device != device {
			continue
		}
		if bytes, err := model.MemoryBytes(r.Model, r.Batch); err == nil {
			warm += h2dCopy(bytes)
		}
	}
	return warm
}

// debtUnit builds the cost-weighted router's per-request debt oracle for a
// defaulted config: T_j = Q·C_j/D_j from an offline batch-1 profile,
// computed once per model through the shared store.
func debtUnit(cfg Config) func(string) (time.Duration, error) {
	return func(modelName string) (time.Duration, error) {
		key := profiler.Key{Model: modelName, Batch: 1}
		prof, err := cfg.Profiles.GetOrCompute(key, func() (*profiler.Result, error) {
			g, err := model.Build(modelName, 1)
			if err != nil {
				return nil, err
			}
			return profiler.ProfileSolo(g, profiler.Options{Spec: cfg.Devices[0], Seed: cfg.Seed + 7})
		})
		if err != nil {
			return 0, err
		}
		return prof.Threshold(core.DefaultQuantum), nil
	}
}

// applyPlacement validates a plan against the fleet size and restricts each
// placed model to its replicas.
func applyPlacement(rt *Router, pl *planner.Placement, devices int) error {
	if pl == nil {
		return nil
	}
	byRef := make(map[string][]int)
	for _, r := range pl.Replicas {
		byRef[r.Model] = append(byRef[r.Model], r.Device)
	}
	for name, devs := range byRef {
		for _, d := range devs {
			if d < 0 || d >= devices {
				return fmt.Errorf("cluster: placement puts %s on device %d of %d", name, d, devices)
			}
		}
		rt.setReplicas(name, devs)
	}
	return nil
}

// Stats aggregates the fleet's activity.
type Stats struct {
	// Devices is the fleet size.
	Devices int
	// Requests, Completed, Failed count cluster-level requests; a request
	// that failed over and then completed counts as completed (the
	// device-level failure is visible in PerDevice).
	Requests  int
	Completed int
	Failed    int
	// Failovers counts re-dispatches after drains.
	Failovers int
	// Crashes counts device crash events; Revives counts replicas
	// re-admitted after restart warm-up; Partitions counts router-device
	// partition windows begun.
	Crashes    int
	Revives    int
	Partitions int
	// MTTR is the revive-weighted mean time from crash to schedulable again
	// across the fleet (zero with no completed recoveries).
	MTTR time.Duration
	// Unavailability is the fleet's downtime fraction: total device downtime
	// over devices x elapsed time.
	Unavailability float64
	// Hedges counts hedged duplicates dispatched; HedgeWins counts races the
	// hedge won. A request whose hedge was dispatched and lost still counts
	// exactly once in Completed — losers are cancelled, never double-counted.
	Hedges    int
	HedgeWins int
	// Goodput is completed cluster requests per second of virtual time.
	Goodput float64
	// PerDevice holds each device's serving stats.
	PerDevice []serving.Stats
	// Utilization is each device's busy fraction over the run.
	Utilization []float64
	// PerModel holds cluster-level end-to-end latency percentiles, sorted
	// by model name, read off source histograms (obs.Hist; DESIGN.md §15
	// "Telemetry plane").
	PerModel []serving.ModelLatency
	// Degraded merges every device's degraded-mode tallies.
	Degraded metrics.Degraded
	// Decisions counts routing decisions; DecisionHash fingerprints their
	// exact sequence for determinism checks.
	Decisions    int
	DecisionHash uint64
}

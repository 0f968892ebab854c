package cluster

import (
	"time"

	"olympian/internal/faults"
	"olympian/internal/gpu"
	"olympian/internal/obs"
	"olympian/internal/sim"
	"olympian/internal/telemetry"
)

// fleet is the front-end core ShardedCluster and LLMCluster share: the shard
// substrate (shard 0 the front-end, shard i+1 device i), the router, the
// per-shard recorders and telemetry samplers, and the crash and revive
// bookkeeping. Each cluster type embeds it and keeps its own request tables
// and per-request paths.
type fleet struct {
	engine Engine
	shards *sim.Shards
	net    time.Duration
	router *Router

	// parent is the caller's recorder; children[0] records the front-end,
	// children[i+1] device i, and FinishObs merges them onto parent. All nil
	// when recording is off.
	parent   *obs.Recorder
	children []*obs.Recorder
	rec      *obs.Recorder

	// samplers[i] scrapes children[i]'s registry on shard i's virtual clock;
	// nil when telemetry is off. timeline caches the merged view.
	tel      *telemetry.Config
	samplers []*telemetry.Sampler
	timeline *telemetry.Timeline

	// Front-end tallies, which the failover, crash and revive counters
	// read. LLMCluster reports crashes and revives from these;
	// ShardedCluster reads each device's own counts instead.
	failovers, crashes, revives int

	routesC *obs.Series
}

// fleetConfig is the part of Config and LLMConfig the shared core reads.
type fleetConfig struct {
	devices    int
	seed       int64
	netLatency time.Duration
	workers    int
	route      RoutePolicy
	slim       bool
	obs        *obs.Recorder
	telemetry  *telemetry.Config
	// debt is the cost-weighted router's per-request debt oracle.
	debt func(string) (time.Duration, error)
}

// init builds the shards, the per-shard recorders and samplers, the shared
// front-end counters and the router in place: the counters are views over
// f's own tallies, so f must already sit at its final address.
func (f *fleet) init(fc fleetConfig, engine Engine) {
	n := fc.devices
	*f = fleet{
		engine: engine,
		shards: sim.NewShards(sim.ShardsConfig{
			N:          n + 1,
			Lookahead:  fc.netLatency,
			Seed:       fc.seed,
			SingleHeap: engine == SingleHeap,
			Workers:    fc.workers,
		}),
		net:      fc.netLatency,
		parent:   fc.obs,
		tel:      fc.telemetry,
		children: make([]*obs.Recorder, n+1),
	}
	if fc.obs != nil {
		for i := range f.children {
			f.children[i] = fc.obs.NewChild()
			f.children[i].Attach(f.shards.Env(i))
		}
		if fc.telemetry != nil {
			f.samplers = make([]*telemetry.Sampler, len(f.children))
			for i := range f.children {
				f.samplers[i] = telemetry.NewSampler(*fc.telemetry, f.children[i].Registry())
				f.samplers[i].Bind(f.shards.Env(i))
			}
		}
	}
	f.rec = f.children[0]
	reg := f.rec.Registry()
	f.routesC = reg.Counter("olympian_cluster_routes_total", "Routing decisions.")
	reg.CounterView("olympian_cluster_failovers_total", "Requests re-dispatched after a drain.", &f.failovers)
	reg.CounterView("olympian_cluster_crashes_total", "Devices crashed permanently or pending restart.", &f.crashes)
	reg.CounterView("olympian_cluster_revives_total", "Replicas re-admitted after restart warm-up.", &f.revives)
	f.router = newRouter(f.shards.Env(0), n, fc.route, fc.debt)
	if fc.slim {
		f.router.setSlim()
	}
}

// injector builds device i's fault injector from its plan, or nil when the
// device runs fault-free.
func injector(plans []*faults.Plan, seed int64, i int) *faults.Injector {
	if i < len(plans) && plans[i] != nil && plans[i].Enabled() {
		return faults.New(seed+int64(i)*1031, *plans[i])
	}
	return nil
}

// reportCrash sends device i's crash report to the front-end; it runs in the
// device's shard context after the device-side drain.
func (f *fleet) reportCrash(i int) {
	f.shards.Send(i+1, 0, f.net, func() { f.crashReported(i) })
}

// watchReady forwards device i's ready signal (warm-up done after a revive)
// to the front-end.
func (f *fleet) watchReady(i int, dev *gpu.Device) {
	dev.SetReadyObserver(func() {
		f.shards.Send(i+1, 0, f.net, func() { f.readyReported(i) })
	})
}

// crashReported runs on shard 0 when a device's crash report arrives: the
// replica is marked dead at the router — only a revive report re-admits it.
func (f *fleet) crashReported(dev int) {
	f.router.MarkDead(dev)
	f.crashes++
	f.rec.Instant(obs.LayerCluster, "crash", obs.NoReq, obs.NoClass, dev, 0)
}

// readyReported runs on shard 0 when a revived device's ready report
// arrives: the replica re-enters rotation with a clean slate.
func (f *fleet) readyReported(dev int) {
	f.router.Revive(dev)
	f.revives++
	f.rec.Instant(obs.LayerCluster, "revive", obs.NoReq, obs.NoClass, dev, 0)
}

// Engine returns which execution engine the cluster runs on.
func (f *fleet) Engine() Engine { return f.engine }

// FrontEnv returns shard 0's environment — schedule arrival generators here.
func (f *fleet) FrontEnv() *sim.Env { return f.shards.Env(0) }

// Router exposes the routing layer (decision log, health controls).
func (f *fleet) Router() *Router { return f.router }

// Run executes the simulation to completion across all shards.
func (f *fleet) Run() error { return f.shards.Run() }

// Shutdown terminates remaining processes on every shard. Call once after
// Run.
func (f *fleet) Shutdown() { f.shards.Shutdown() }

// FinishObs folds the per-shard recorders onto the configured recorder under
// one boundary label, then logs any SLO burn-rate alert transitions as
// telemetry-layer instants on the same merged time base. Call once after
// Run; a no-op when recording is off.
func (f *fleet) FinishObs(label string) {
	if f.parent == nil {
		return
	}
	f.parent.Merge(label, f.children)
	if tl := f.Timeline(); tl != nil {
		tl.LogAlerts(f.parent)
	}
}

// Timeline merges the per-shard samplers into the run's fleet telemetry
// timeline and evaluates the configured SLO burn-rate rules. Each shard's
// sampler ticks on its own virtual clock; Merge extends the early-quiescing
// ones to the global tick count, so the result is identical on the
// single-heap and parallel engines. Returns nil when telemetry is off; call
// after Run (the merge is cached).
func (f *fleet) Timeline() *telemetry.Timeline {
	if f.samplers == nil {
		return nil
	}
	if f.timeline == nil {
		f.timeline = telemetry.Merge(*f.tel, f.samplers)
	}
	return f.timeline
}

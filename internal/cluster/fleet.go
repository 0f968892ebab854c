package cluster

import (
	"errors"
	"fmt"
	"time"

	"olympian/internal/faults"
	"olympian/internal/gpu"
	"olympian/internal/obs"
	"olympian/internal/overload"
	"olympian/internal/serving"
	"olympian/internal/sim"
	"olympian/internal/telemetry"
)

// fleet is the front-end core ShardedCluster and LLMCluster share: the shard
// substrate (shard 0 the front-end, shard i+1 device i), the router, the
// per-shard recorders and telemetry samplers, the crash and revive
// bookkeeping, and the attempt lifecycle — how one dispatch of a request to
// a device is numbered (dispatch), ended by its outcome report (fold),
// re-routed after a drain (failover) and how the request is decided (stamp).
// Each cluster type embeds it and keeps only what its requests do between
// those steps: hedging and loser cancellation for the sharded fleet, KV
// handoff, retries and token accounting for the LLM fleet.
type fleet struct {
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

	// reqCount numbers arrivals; nextAttempt numbers dispatch attempts
	// (monotonic, never reused, so a stale cancel can never match a later
	// attempt); outstanding counts attempts not yet folded; maxFailovers
	// caps each request's drain re-dispatches.
	reqCount, nextAttempt, outstanding, maxFailovers int

	routesC *obs.Series
}

// request is the front-end state ShardedRequest and LLMRequest share, owned
// by shard 0. Its in-flight attempts live inline: a sharded request races
// at most its primary and one hedge (armHedge fires once, guarded by
// Hedged), and every other dispatch — a failover, an LLM decode or retry —
// only follows the fold of the attempt it replaces, so the LLM fleet never
// holds more than one. A third concurrent attempt is a lifecycle bug and
// panics on the slot index.
type request struct {
	// ID is the request's fleet-level arrival index; Class its priority class.
	ID    int
	Class overload.Class
	// Hops counts failover re-dispatches after drains.
	Hops int
	// ArriveAt is when the request entered the front-end; FinishAt is when
	// the report that decided it arrived back, so latencies span both
	// network hops. Both are in global virtual time.
	ArriveAt sim.Time
	FinishAt sim.Time
	// Err is the request's final error (nil on success or in flight).
	Err error

	settled bool
	nlive   uint8 // live[:nlive] are in flight
	live    [2]attempt
}

// attempt is one in-flight dispatch of a request to a device.
type attempt struct {
	id    int
	dev   int
	hedge bool
}

// inflight returns the request's attempts still awaiting their reports.
func (r *request) inflight() []attempt { return r.live[:r.nlive] }

// fleetConfig is the part of Config and LLMConfig the shared core reads.
type fleetConfig struct {
	devices      int
	seed         int64
	netLatency   time.Duration
	route        RoutePolicy
	maxFailovers int // defaulted
	obs          *obs.Recorder
	telemetry    *telemetry.Config
	// debt is the cost-weighted router's per-request debt oracle.
	debt func(string) (time.Duration, error)
}

// init builds the shards, the per-shard recorders and samplers, the shared
// front-end counters and the router in place: the counters are views over
// f's own tallies, so f must already sit at its final address.
func (f *fleet) init(fc fleetConfig, engine Engine) {
	n := fc.devices
	*f = fleet{
		shards: sim.NewShards(sim.ShardsConfig{
			N:          n + 1,
			Lookahead:  fc.netLatency,
			Seed:       fc.seed,
			SingleHeap: engine == SingleHeap,
		}),
		net:          fc.netLatency,
		parent:       fc.obs,
		tel:          fc.telemetry,
		children:     make([]*obs.Recorder, n+1),
		maxFailovers: fc.maxFailovers,
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
}

// failoverCap applies the MaxFailovers rule both fleets share: 0 takes the
// fleet's default, a negative value disables failover.
func failoverCap(n, def int) int {
	if n == 0 {
		return def
	}
	return max(n, 0)
}

// admit opens a routed arrival's shared state on shard 0 — the next arrival
// index, its class and the arrival time — and logs its route to dev.
func (f *fleet) admit(r *request, class overload.Class, dev int, instant string) {
	r.ID, r.Class, r.ArriveAt = f.reqCount, class, f.shards.Env(0).Now()
	f.reqCount++
	f.routesC.Inc()
	f.rec.Instant(obs.LayerCluster, instant, r.ID, int(class), obs.NoDevice, int64(dev))
}

// dispatch records a new attempt of r on device dev in r's inline slots and
// returns its id, which the attempt's report carries back beside r.
func (f *fleet) dispatch(r *request, dev int, hedge bool) int {
	id := f.nextAttempt
	f.nextAttempt++
	f.outstanding++
	r.live[r.nlive] = attempt{id: id, dev: dev, hedge: hedge}
	r.nlive++
	return id
}

// fold ends attempt id of r when its report arrives on shard 0: the attempt
// leaves r's slots and releases its device's router slot. It returns the
// attempt and whether r is still undecided. A report for an attempt r does
// not hold — delivered twice, or for another request — panics.
func (f *fleet) fold(r *request, id int) (attempt, bool) {
	live := r.inflight()
	for i, a := range live {
		if a.id == id {
			copy(live[i:], live[i+1:])
			r.nlive--
			f.outstanding--
			f.router.release(a.dev)
			return a, !r.settled
		}
	}
	panic(fmt.Sprintf("cluster: report for attempt %d, which request %d does not hold", id, r.ID))
}

// failover re-routes r to a surviving replica of modelName after one of its
// attempts drained, logging the hop as instant, and returns the new device.
// It reports false — the caller retries or settles — when err is not a
// drain, r has spent its MaxFailovers hops, or no replica is routable.
func (f *fleet) failover(r *request, err error, modelName, instant string) (int, bool) {
	if !errors.Is(err, serving.ErrDrained) || r.Hops >= f.maxFailovers {
		return 0, false
	}
	next, rerr := f.router.Route(modelName, true)
	if rerr != nil {
		return 0, false
	}
	r.Hops++
	f.failovers++
	f.rec.Instant(obs.LayerCluster, instant, r.ID, int(r.Class), obs.NoDevice, int64(next))
	return next, true
}

// stamp decides r with err at the current front-end time.
func (f *fleet) stamp(r *request, err error) {
	r.settled = true
	r.Err = err
	r.FinishAt = f.shards.Env(0).Now()
}

// OutstandingAttempts returns how many dispatch attempts are still in flight
// (dispatched, no outcome report folded back yet). After a run has quiesced
// it must be zero — the request-conservation checkers assert this: a
// nonzero count means some attempt's report was lost.
func (f *fleet) OutstandingAttempts() int { return f.outstanding }

// injector builds device i's fault injector from its plan, or nil when the
// device runs fault-free.
func injector(plans []*faults.Plan, seed int64, i int) *faults.Injector {
	if i < len(plans) && plans[i] != nil && plans[i].Enabled() {
		return faults.New(seed+int64(i)*1031, *plans[i])
	}
	return nil
}

// watchCrashes installs device i's crash and ready observers. On a crash,
// in the device's own context: drain its work (the drained requests' done
// events fan failed-attempt reports back), arm the revival after warm on its
// own heap unless the crash is permanent, and tell the front-end to mark it
// dead — no timer expiry there brings it back. The ready signal (warm-up
// done after a revive) is forwarded to the front-end.
func (f *fleet) watchCrashes(i int, dev *gpu.Device, warm time.Duration, drain func() int) {
	dev.SetCrashObserver(func(recovery time.Duration) {
		drained := drain()
		f.children[i+1].Instant(obs.LayerCluster, "crash_drain", obs.NoReq, obs.NoClass, i, int64(drained))
		if recovery > 0 {
			f.shards.Env(i+1).Schedule(recovery, func() { dev.Revive(warm) })
		}
		f.shards.Send(i+1, 0, f.net, func() { f.crashReported(i) })
	})
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

// Devices returns the fleet size.
func (f *fleet) Devices() int { return len(f.children) - 1 }

// FrontEnv returns shard 0's environment — schedule arrival generators here.
func (f *fleet) FrontEnv() *sim.Env { return f.shards.Env(0) }

// Router exposes the routing layer (decision fingerprint, health controls).
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
// single-heap and sharded engines. Returns nil when telemetry is off; call
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

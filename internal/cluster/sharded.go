// Sharded cluster engine: the fleet partitioned across per-device
// sub-environments under conservative lookahead.
//
// Each device gets its own sim.Env — shard i+1 hosts device i's full stack
// (GPU, scheduler, executor, serving front-end) — and the cluster's shared
// state (router, request bookkeeping, hedge timers) lives on shard 0, the
// front-end. Shards interact only through sim.Shards.Send, whose delay is
// clamped to the modeled network latency, so windows of Config.NetLatency
// virtual time run in parallel across a worker pool. The SingleHeap engine
// runs the same shards on one shared event heap as the reference.
//
// The attempt lifecycle — numbering, folding reports, drain failover, the
// settle stamp — is the shared fleet core's (fleet.go); this file adds
// hedging, loser cancellation, and stall and partition handling.
//
// Every cross-shard interaction is a message:
//
//	submit:  front-end routes, opens an attempt in the request's inline
//	         slots, then sends it to the device's agent (a daemon process
//	         that calls serving.SubmitClass from process context and
//	         subscribes to the request's completion event).
//	report:  the device snapshots the attempt's outcome in its own context
//	         and sends it back under its (request, attempt id) pair; the
//	         front-end folds it, settles the race, re-dispatches drained
//	         attempts, and cancels losers with cancel messages.
//	stall:   a stalled device drains its own queue, then reports the stall;
//	         the front-end takes it out of rotation until the stall clears.
//
// Determinism: the construction in package sim makes each shard's execution a
// pure function of its initial state plus the barrier mail order, and every
// stack draws randomness from private streams (serving.Config.IsolateRand),
// so the parallel engine, its serial degradation (Workers=1), and the
// single-heap reference engine produce bit-identical stats, decision-log
// hashes, and lifecycle traces.
package cluster

import (
	"fmt"
	"sort"
	"time"

	"olympian/internal/faults"
	"olympian/internal/obs"
	"olympian/internal/overload"
	"olympian/internal/serving"
	"olympian/internal/sim"
)

// Engine selects how a sharded cluster executes its shards.
type Engine int

const (
	// SingleHeap runs every shard on one shared event heap — the reference
	// engine differential tests compare the parallel engine against.
	SingleHeap Engine = iota
	// Sharded runs each shard on its own heap, windows in parallel.
	Sharded
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case SingleHeap:
		return "single-heap"
	case Sharded:
		return "sharded"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// DefaultNetLatency is the fallback front-end<->device network latency (and
// thus the conservative lookahead bounding each parallel window).
const DefaultNetLatency = 50 * time.Microsecond

// ShardedCluster is a fleet of devices behind one router, executed on
// per-device sub-environments synchronized at the routing boundary.
type ShardedCluster struct {
	fleet
	cfg     Config
	servers []*serving.Server
	agents  []*shardAgent

	// Front-end bookkeeping, all owned by shard 0.
	requests   []*ShardedRequest // retained unless Slim
	completed  int
	failed     int
	hedges     int
	hedgeWins  int
	partitions int
	// byModel holds fleet-level end-to-end latency histograms recorded at
	// settle (front-end arrival to winning report), one per model; Stats
	// derives PerModel from these with bounded memory in both retained and
	// Slim modes.
	byModel map[string]*obs.Hist
}

// ShardedRequest is one cluster-level inference request. It survives
// failover (drained attempts re-dispatch to surviving replicas) and may be
// hedged (a duplicate races the primary on another replica; first completion
// wins, the loser is cancelled). Every dispatch attempt lives on its device's
// shard; the front-end only sees attempt outcome reports. ID, Class, Hops,
// ArriveAt, FinishAt, Err, Finished and Failed come from the shared request
// state.
type ShardedRequest struct {
	request
	// Model is the target model name.
	Model string
	// Device is the replica that finally served (or last held) the request.
	Device int
	// Hedged reports whether a duplicate was dispatched.
	Hedged bool
}

// Latency returns the end-to-end response time from front-end arrival to the
// winning report's return; 0 in flight or after a failure.
func (r *ShardedRequest) Latency() time.Duration {
	if r.Err != nil || !r.settled || r.FinishAt < r.ArriveAt {
		return 0
	}
	return time.Duration(r.FinishAt - r.ArriveAt)
}

// NewSharded builds a sharded cluster: shard 0 is the front-end, shard i+1
// hosts device i. The engine picks parallel execution or the single-heap
// reference; both produce bit-identical runs for equal configs and seeds.
func NewSharded(cfg Config, engine Engine) (*ShardedCluster, error) {
	cfg = cfg.withDefaults()
	n := len(cfg.Devices)
	c := &ShardedCluster{
		cfg:     cfg,
		byModel: make(map[string]*obs.Hist),
	}
	c.fleet.init(fleetConfig{
		devices: n, seed: cfg.Seed, netLatency: cfg.NetLatency, workers: cfg.Workers,
		route: cfg.Route, slim: cfg.Slim, maxFailovers: cfg.MaxFailovers,
		obs: cfg.Obs, telemetry: cfg.Telemetry, debt: debtUnit(cfg),
	}, engine)
	reg := c.rec.Registry()
	reg.CounterView("olympian_cluster_hedges_total", "Hedged duplicates dispatched.", &c.hedges)
	reg.CounterView("olympian_cluster_hedge_wins_total", "Races won by the hedge.", &c.hedgeWins)
	reg.CounterView("olympian_cluster_partitions_total", "Router-device partition windows begun.", &c.partitions)
	if err := applyPlacement(c.router, cfg.Placement, n); err != nil {
		return nil, err
	}

	for i, spec := range cfg.Devices {
		env := c.shards.Env(i + 1)
		inj := injector(cfg.Faults, cfg.Seed, i)
		srv, err := serving.NewServer(env, serving.Config{
			Spec:               spec,
			UseOlympian:        true,
			Policy:             cfg.Policy(),
			Quantum:            cfg.Quantum,
			MaxBatch:           cfg.MaxBatch,
			BatchTimeout:       cfg.BatchTimeout,
			MaxQueue:           cfg.MaxQueue,
			Deadline:           cfg.Deadline,
			Seed:               cfg.Seed + int64(i)*101,
			Faults:             inj,
			Admission:          cfg.Admission,
			Obs:                c.children[i+1],
			Device:             i,
			IsolateRand:        true,
			Slim:               cfg.Slim,
			TestStrandDrainNth: cfg.TestStrandDrainNth,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: device %d: %w", i, err)
		}
		c.servers = append(c.servers, srv)
		c.agents = append(c.agents, newShardAgent(c, i, srv))

		devRec := c.children[i+1]
		drainsC := devRec.Registry().Counter("olympian_cluster_drains_total", "Devices drained on stall.")
		// Device-side: drain our own queue; the drained requests' done events
		// fan failed-attempt reports back through the agent (a crash's
		// in-flight batches fail through the crash path).
		drain := func() int {
			drained := srv.DrainQueued()
			drainsC.Inc()
			return drained
		}
		srv.Device().SetStallObserver(func(until sim.Time) {
			// Then tell the front-end to route around us.
			devRec.Instant(obs.LayerCluster, "drain", obs.NoReq, obs.NoClass, i, int64(drain()))
			c.shards.Send(i+1, 0, c.net, func() { c.stallReported(i, until) })
		})
		c.watchCrashes(i, srv.Device(), warmupFor(cfg, i), drain)
		if inj != nil {
			c.schedulePartitions(i, inj)
		}
	}
	return c, nil
}

// schedulePartitions arms a device's router-partition windows on the
// front-end heap: during a window new requests route around the device but
// nothing drains — queued and resident work keeps executing. The schedule
// is read from the injector's precomputed plan at construction.
func (c *ShardedCluster) schedulePartitions(device int, inj *faults.Injector) {
	env := c.shards.Env(0)
	for _, w := range inj.PartitionWindows() {
		env.ScheduleAt(sim.Time(w.From), func() {
			c.partitions++
			c.rec.Instant(obs.LayerCluster, "partition", obs.NoReq, obs.NoClass, device, int64(w.Dur))
			until := sim.Time(w.From + w.Dur)
			c.router.MarkDown(device, until)
			env.Schedule(w.Dur, func() {
				if !c.router.Down(device) {
					c.router.MarkUp(device)
				}
			})
		})
	}
}

// shardAgent executes front-end commands on its device's shard. Submit and
// cancel need process context (serving.SubmitClass and the gang-abort path
// both park), so the agent is a daemon process draining a FIFO op queue that
// cross-shard messages append to.
type shardAgent struct {
	c     *ShardedCluster
	shard int // device+1
	srv   *serving.Server
	cond  *sim.Cond
	ops   []agentOp
	inner map[int]*serving.Request
}

// agentOp is one front-end command: a dispatch attempt, or its cancellation.
// req rides along so the attempt's report can name its request; only shard
// 0 dereferences it.
type agentOp struct {
	cancel  bool
	attempt int
	req     *ShardedRequest
	model   string
	class   overload.Class
}

func newShardAgent(c *ShardedCluster, device int, srv *serving.Server) *shardAgent {
	env := c.shards.Env(device + 1)
	name := fmt.Sprintf("cluster-agent-%d", device)
	a := &shardAgent{
		c:     c,
		shard: device + 1,
		srv:   srv,
		cond:  env.NewCond(name),
		inner: make(map[int]*serving.Request),
	}
	proc := env.Go(name, func(p *sim.Proc) {
		for {
			for len(a.ops) == 0 {
				a.cond.Wait(p)
			}
			op := a.ops[0]
			a.ops[0] = agentOp{}
			a.ops = a.ops[1:]
			a.exec(p, op)
		}
	})
	proc.SetDaemon(true)
	return a
}

// enqueue appends one op; called in the agent's shard context by delivered
// cross-shard messages.
func (a *shardAgent) enqueue(op agentOp) {
	a.ops = append(a.ops, op)
	a.cond.Signal()
}

func (a *shardAgent) exec(p *sim.Proc, op agentOp) {
	if op.cancel {
		if inner, ok := a.inner[op.attempt]; ok {
			// A landed cancel completes the request with ErrCanceled, so its
			// done subscriber reports back; a miss means the request already
			// finished and its natural report is on the wire.
			a.srv.Cancel(p, inner)
		}
		return
	}
	inner, err := a.srv.SubmitClass(p, op.model, op.class)
	if err != nil {
		// Synchronous rejection (e.g. unknown model): surface it as a failed
		// attempt — under the sharded engine even these arrive asynchronously.
		a.report(op.req, op.attempt, err)
		return
	}
	r, id := op.req, op.attempt
	a.inner[id] = inner
	inner.Done().Subscribe(func() {
		delete(a.inner, id)
		a.report(r, id, inner.Err)
	})
}

// report sends one attempt outcome back to the front-end. The error is
// snapshotted here, in the device's own context, so the closure the
// front-end runs touches no device-shard state.
func (a *shardAgent) report(r *ShardedRequest, attempt int, err error) {
	c := a.c
	c.shards.Send(a.shard, 0, c.net, func() { c.attemptDone(r, attempt, err) })
}

// SubmitEvent routes one request of the given class and dispatches it to the
// chosen replica. It must run in shard 0's execution context — an event
// callback or process on FrontEnv, e.g. a self-rescheduling arrival event.
// Routing errors (no replicas) are synchronous; a replica's own rejection
// (shed, unknown model) arrives asynchronously as a failed attempt.
func (c *ShardedCluster) SubmitEvent(modelName string, class overload.Class) (*ShardedRequest, error) {
	dev, err := c.router.Route(modelName, false)
	if err != nil {
		return nil, err
	}
	r := &ShardedRequest{Model: modelName, Device: dev}
	c.admit(&r.request, class, dev, "route")
	if !c.cfg.Slim {
		c.requests = append(c.requests, r)
	}
	c.send(r, dev, false)
	if c.cfg.HedgeDelay > 0 {
		c.armHedge(r)
	}
	return r, nil
}

// send dispatches one attempt to the device's agent.
func (c *ShardedCluster) send(r *ShardedRequest, dev int, hedge bool) {
	op := agentOp{attempt: c.dispatch(&r.request, dev, hedge), req: r, model: r.Model, class: r.Class}
	agent := c.agents[dev]
	c.shards.Send(0, dev+1, c.net, func() { agent.enqueue(op) })
}

// attemptDone folds one attempt outcome report into the request's state.
// Runs on shard 0 when the report message is delivered.
func (c *ShardedCluster) attemptDone(r *ShardedRequest, id int, err error) {
	att, open := c.fold(&r.request, id)
	if !open {
		// A loser finishing after the race was decided: cancelled, or a
		// photo-finish completion on the slower replica.
		return
	}
	if err == nil {
		c.settle(r, att.dev, nil)
		if att.hedge {
			c.hedgeWins++
			c.rec.Instant(obs.LayerCluster, "hedge_win", r.ID, int(r.Class), obs.NoDevice, int64(att.dev))
		}
		return
	}
	if next, ok := c.failover(&r.request, err, r.Model, "failover"); ok {
		c.send(r, next, att.hedge)
		return
	}
	// Terminal failure for this attempt; another attempt may still be
	// racing, so only the last one standing settles the request.
	if r.nlive == 0 {
		c.settle(r, att.dev, err)
	}
}

// settle decides the request and sends cancel messages for any still-racing
// attempts; their eventual reports release the router slots.
func (c *ShardedCluster) settle(r *ShardedRequest, dev int, err error) {
	c.stamp(&r.request, err)
	if err == nil {
		r.Device = dev
		c.completed++
		c.modelHist(r.Model).Observe(r.Latency())
	} else {
		c.failed++
	}
	for _, a := range r.inflight() {
		op := agentOp{cancel: true, attempt: a.id}
		agent := c.agents[a.dev]
		c.shards.Send(0, a.dev+1, c.net, func() { agent.enqueue(op) })
		c.rec.Instant(obs.LayerCluster, "cancel_loser", r.ID, int(r.Class), obs.NoDevice, int64(a.dev))
	}
}

// modelHist lazily creates the fleet-level per-model latency histogram on
// the front-end recorder. First-settle order is deterministic for a given
// seed and identical across engines, so registration order matches too.
func (c *ShardedCluster) modelHist(modelName string) *obs.Hist {
	h, ok := c.byModel[modelName]
	if !ok {
		h = obs.EnsureHist(c.rec.Registry().Histogram(
			"olympian_cluster_model_latency_seconds", "Fleet end-to-end latency by model.",
			"model", modelName))
		c.byModel[modelName] = h
	}
	return h
}

// armHedge schedules the request's hedge timer on the front-end heap: if the
// request is still undecided after HedgeDelay, a duplicate is dispatched to
// the next-best replica not already serving it.
func (c *ShardedCluster) armHedge(r *ShardedRequest) {
	c.shards.Env(0).Schedule(c.cfg.HedgeDelay, func() {
		if r.settled || r.Hedged {
			return
		}
		exclude := make([]int, 0, r.nlive)
		for _, a := range r.inflight() {
			exclude = append(exclude, a.dev)
		}
		dev, err := c.router.RouteHedge(r.Model, exclude)
		if err != nil {
			return
		}
		r.Hedged = true
		c.hedges++
		c.rec.Instant(obs.LayerCluster, "hedge", r.ID, int(r.Class), obs.NoDevice, int64(dev))
		c.send(r, dev, true)
	})
}

// stallReported runs on shard 0 when a device's stall report arrives: the
// device leaves rotation until the stall clears (it already drained itself).
func (c *ShardedCluster) stallReported(dev int, until sim.Time) {
	c.router.MarkDown(dev, until)
	env := c.shards.Env(0)
	if until > env.Now() {
		env.Schedule(until.Sub(env.Now()), func() {
			if !c.router.Down(dev) {
				c.router.MarkUp(dev)
			}
		})
	}
}

// Server returns device i's serving front-end.
func (c *ShardedCluster) Server(i int) *serving.Server { return c.servers[i] }

// Requests returns all cluster-level requests submitted so far; nil in Slim
// mode, which does not retain them.
func (c *ShardedCluster) Requests() []*ShardedRequest { return c.requests }

// Stats summarises the cluster's activity so far. Rates use the shard
// horizon (the latest virtual time any shard reached) as the elapsed-time
// denominator; per-device utilization is normalized to the same horizon so
// both engines report identical values.
func (c *ShardedCluster) Stats() Stats {
	st := Stats{Devices: len(c.servers), Failovers: c.failovers, Hedges: c.hedges, HedgeWins: c.hedgeWins,
		Partitions: c.partitions}
	now := c.shards.Horizon()
	var totalDown, recovered time.Duration
	for _, srv := range c.servers {
		ds := srv.Stats()
		util := 0.0
		if now > 0 {
			util = srv.Device().TotalBusy().Seconds() / now.Seconds()
		}
		ds.Utilization = util
		// Re-normalize availability to the shard horizon: each device's own
		// clock stops at its last local event, so the single-heap and
		// parallel engines would otherwise disagree on open-ended downtime.
		ds.Avail = srv.AvailAt(now)
		st.PerDevice = append(st.PerDevice, ds)
		st.Degraded.Merge(ds.Degraded)
		st.Utilization = append(st.Utilization, util)
		dev := srv.Device()
		st.Crashes += dev.Crashes()
		st.Revives += dev.Revives()
		totalDown += dev.DowntimeAt(now)
		recovered += dev.MTTR() * time.Duration(dev.Revives())
	}
	if st.Revives > 0 {
		st.MTTR = recovered / time.Duration(st.Revives)
	}
	if now > 0 && len(c.servers) > 0 {
		st.Unavailability = totalDown.Seconds() / (float64(len(c.servers)) * now.Seconds())
	}
	st.Requests = c.reqCount
	st.Completed = c.completed
	st.Failed = c.failed
	names := make([]string, 0, len(c.byModel))
	for name := range c.byModel {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st.PerModel = append(st.PerModel, serving.ModelLatency{
			Model: name, Latency: serving.HistPercentiles(c.byModel[name]),
		})
	}
	if now > 0 {
		st.Goodput = float64(st.Completed) / now.Seconds()
	}
	st.Decisions = c.router.Count()
	st.DecisionHash = c.router.DecisionHash()
	return st
}

// Sharded cluster engine: the fleet partitioned across per-device
// sub-environments under conservative lookahead.
//
// Each device gets its own sim.Env — shard i+1 hosts device i's full stack
// (GPU, scheduler, executor, serving front-end) — and the cluster's shared
// state (router, request bookkeeping, hedge timers) lives on shard 0, the
// front-end. Shards interact only through sim.Shards.Send, whose delay is
// clamped to the modeled network latency, so each window of DefaultNetLatency
// virtual time runs every shard to its end before any message crosses. The
// SingleHeap engine runs the same shards on one shared event heap as the
// reference.
//
// The attempt lifecycle — numbering, folding reports, drain failover, the
// settle stamp — is the shared fleet core's (fleet.go); this file adds
// hedging, loser cancellation, and stall and partition handling.
//
// Every cross-shard interaction is a message:
//
//	submit:  front-end routes, opens an attempt in the request's inline
//	         slots, then sends its record to the device's agent (an op
//	         queue drained by one event callback, which submits the
//	         serving request the record holds and subscribes to its
//	         completion event).
//	report:  the device snapshots the attempt's outcome in its own context
//	         and sends it back under its (request, attempt id) pair; the
//	         front-end folds it, settles the race, re-dispatches drained
//	         attempts, and cancels losers with cancel messages.
//	stall:   a stalled device drains its own queue, then reports the stall;
//	         the front-end takes it out of rotation until the stall clears.
//
// Determinism: the construction in package sim makes each shard's execution a
// pure function of its initial state plus the barrier mail order, and every
// stack draws randomness from its own private stream (serving.NewServer),
// so the sharded engine and the single-heap reference engine produce
// bit-identical stats, decision hashes, and lifecycle traces.
package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"olympian/internal/faults"
	"olympian/internal/fifo"
	"olympian/internal/obs"
	"olympian/internal/overload"
	"olympian/internal/serving"
	"olympian/internal/sim"
)

// Engine selects how a sharded cluster executes its shards.
type Engine int

const (
	// SingleHeap runs every shard on one shared event heap — the reference
	// engine differential tests compare the sharded engine against.
	SingleHeap Engine = iota
	// Sharded runs each shard on its own heap, window by window.
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

// DefaultNetLatency is the modeled front-end<->device network latency (and
// thus the conservative lookahead bounding each window).
const DefaultNetLatency = 50 * time.Microsecond

// ShardedCluster is a fleet of devices behind one router, executed on
// per-device sub-environments synchronized at the routing boundary.
type ShardedCluster struct {
	fleet
	cfg     Config
	servers []*serving.Server
	agents  []*shardAgent
	free    []*shardedAttempt // attempt records, owned by shard 0

	// armed holds the requests whose hedge timers are pending, in arming
	// order, which is also firing order (armHedge); hedgeTimer is
	// c.fireHedge, bound once. exclude is fireHedge's reused device list.
	armed      fifo.Ring[*ShardedRequest]
	hedgeTimer func()
	exclude    []int

	// Front-end bookkeeping, all owned by shard 0.
	completed  int
	failed     int
	hedges     int
	hedgeWins  int
	partitions int
	// byModel holds fleet-level end-to-end latency histograms recorded at
	// settle (front-end arrival to winning report), one per model; Stats
	// derives PerModel from these with bounded memory.
	byModel  map[string]*obs.Hist
	onSettle []func(*ShardedRequest) // OnSettle's observers
}

// ShardedRequest is one cluster-level inference request. It survives
// failover (drained attempts re-dispatch to surviving replicas) and may be
// hedged (a duplicate races the primary on another replica; first completion
// wins, the loser is cancelled). Every dispatch attempt lives on its device's
// shard; the front-end only sees attempt outcome reports. ID, Class, Hops,
// ArriveAt, FinishAt and Err come from the shared request state.
type ShardedRequest struct {
	request
	// Model is the target model name.
	Model string
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
// hosts device i. The engine picks per-shard heaps or the single-heap
// reference; both produce bit-identical runs for equal configs and seeds.
func NewSharded(cfg Config, engine Engine) (*ShardedCluster, error) {
	cfg = cfg.withDefaults()
	n := len(cfg.Devices)
	c := &ShardedCluster{
		cfg:     cfg,
		byModel: make(map[string]*obs.Hist),
	}
	c.fleet.init(fleetConfig{
		devices: n, seed: cfg.Seed, route: cfg.Route, maxFailovers: maxFailovers,
		obs: cfg.Obs, telemetry: cfg.Telemetry, debt: debtUnit(cfg),
	}, engine)
	c.hedgeTimer = c.fireHedge
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
		seed := cfg.Seed + int64(i)*101
		srv, err := serving.NewServer(env, serving.Config{
			Spec:               spec,
			UseOlympian:        true,
			MaxBatch:           cfg.MaxBatch,
			BatchTimeout:       cfg.BatchTimeout,
			MaxQueue:           cfg.MaxQueue,
			Deadline:           cfg.Deadline,
			Seed:               seed,
			Faults:             inj,
			Admission:          cfg.Admission,
			Obs:                c.children[i+1],
			Device:             i,
			TestStrandDrainNth: cfg.TestStrandDrainNth,
		}, rand.New(rand.NewSource(seed+811)))
		if err != nil {
			return nil, fmt.Errorf("cluster: device %d: %w", i, err)
		}
		c.servers = append(c.servers, srv)
		c.agents = append(c.agents, newShardAgent(env, i+1, srv))

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
			c.shards.Send(i+1, 0, DefaultNetLatency, func() { c.stallReported(i, until) })
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

// shardAgent executes front-end commands on its device's shard. Delivered
// cross-shard messages append ops to a FIFO; the first op into an empty FIFO
// schedules drain, which runs every queued op in order at that event's
// (time, seq) slot. serving.Server.Submit and Cancel never park, so no
// process is needed.
type shardAgent struct {
	env   *sim.Env
	shard int // device+1
	srv   *serving.Server
	ops   []agentOp
	drain func() // a.run, bound once
	// inner maps a live attempt id to its device-side request, so a cancel
	// (which carries only the id) can find it. Device-shard state.
	inner map[int]*serving.Request
}

// agentOp is one front-end command: a dispatch attempt, or, when att is
// nil, the cancellation of attempt cancel.
type agentOp struct {
	att    *shardedAttempt
	cancel int
}

func newShardAgent(env *sim.Env, shard int, srv *serving.Server) *shardAgent {
	a := &shardAgent{env: env, shard: shard, srv: srv, inner: make(map[int]*serving.Request)}
	a.drain = a.run
	return a
}

// enqueue appends one op; called in the agent's shard context by delivered
// cross-shard messages.
func (a *shardAgent) enqueue(op agentOp) {
	if len(a.ops) == 0 {
		a.env.Schedule(0, a.drain)
	}
	a.ops = append(a.ops, op)
}

// run executes the queued ops in FIFO order and empties the queue, keeping
// its array for the next batch of messages.
func (a *shardAgent) run() {
	for i := 0; i < len(a.ops); i++ {
		op := a.ops[i]
		a.ops[i] = agentOp{}
		if op.att == nil {
			if inner, ok := a.inner[op.cancel]; ok {
				// A landed cancel completes the request with ErrCanceled, so
				// its done subscriber reports back; a miss means the request
				// already finished and its natural report is on the wire.
				a.srv.Cancel(inner)
			}
			continue
		}
		a.submit(op.att)
	}
	a.ops = a.ops[:0]
}

func (a *shardAgent) submit(t *shardedAttempt) {
	if err := a.srv.Submit(&t.inner, t.model, t.class); err != nil {
		// Synchronous rejection (e.g. unknown model): surface it as a failed
		// attempt — under the sharded engine even these arrive asynchronously.
		t.send(err)
		return
	}
	a.inner[t.id] = &t.inner
	t.next = (*shardedAttempt).done
	t.inner.Done().Subscribe(t.hop)
}

// shardedAttempt is one dispatch attempt's record, carried to the device by
// the submit message and back by the report. Ownership moves with the
// messages: shard 0 fills it and sends it, the device then alone touches it
// until it sends the report, and shard 0 returns it to the free list at fold.
//
// The record holds the device-side serving request by value. Reuse is safe
// because the server lets go of a request when its Done fires (Cancel drops
// a dispatched rider from its batch), and a recycled record reaches a device
// again only after the report and the next submit message have crossed, at
// least 2 × DefaultNetLatency later.
type shardedAttempt struct {
	c     *ShardedCluster
	agent *shardAgent

	// Set on shard 0 before the submit message.
	req   *ShardedRequest
	id    int
	model string
	class overload.Class

	// The device-side request, and its outcome, set on the device before
	// the report message.
	inner serving.Request
	err   error

	// hop is t.step bound once: both messages and the completion
	// subscription deliver it, and next names the action it runs there
	// (arrive on the device, done on the device at completion, back on
	// shard 0). A method expression allocates nothing, so a record costs one
	// closure for its whole life.
	hop  func()
	next func(*shardedAttempt)
}

// step runs the attempt's next action.
func (t *shardedAttempt) step() { t.next(t) }

// newAttempt takes a record from shard 0's free list, or makes one.
func (c *ShardedCluster) newAttempt() *shardedAttempt {
	if n := len(c.free); n > 0 {
		t := c.free[n-1]
		c.free = c.free[:n-1]
		return t
	}
	t := &shardedAttempt{c: c}
	t.hop = t.step
	return t
}

// arrive runs on the device when the submit message is delivered.
func (t *shardedAttempt) arrive() { t.agent.enqueue(agentOp{att: t}) }

// done runs on the device when the attempt's request completes.
func (t *shardedAttempt) done() {
	delete(t.agent.inner, t.id)
	t.send(t.inner.Err)
}

// send snapshots the attempt's outcome in the device's own context, clears
// the device-side request so the free record holds no pointers, and reports
// the outcome to the front-end.
func (t *shardedAttempt) send(err error) {
	t.inner, t.err = serving.Request{}, err
	t.next = (*shardedAttempt).back
	t.c.shards.Send(t.agent.shard, 0, DefaultNetLatency, t.hop)
}

// back runs on shard 0 when the report message is delivered.
func (t *shardedAttempt) back() { t.c.attemptDone(t) }

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
	r := &ShardedRequest{Model: modelName}
	c.admit(&r.request, class, dev, "route")
	c.send(r, dev, false)
	if c.cfg.HedgeDelay > 0 {
		c.armHedge(r)
	}
	return r, nil
}

// send dispatches one attempt to the device's agent.
func (c *ShardedCluster) send(r *ShardedRequest, dev int, hedge bool) {
	t := c.newAttempt()
	t.agent, t.req, t.model, t.class = c.agents[dev], r, r.Model, r.Class
	t.id = c.dispatch(&r.request, dev, hedge)
	t.next = (*shardedAttempt).arrive
	c.shards.Send(0, dev+1, DefaultNetLatency, t.hop)
}

// attemptDone folds one attempt outcome report into the request's state and
// frees its record. Runs on shard 0 when the report message is delivered.
func (c *ShardedCluster) attemptDone(t *shardedAttempt) {
	r, err := t.req, t.err
	att, open := c.fold(&r.request, t.id)
	t.req, t.err = nil, nil
	c.free = append(c.free, t)
	if !open {
		// A loser finishing after the race was decided: cancelled, or a
		// photo-finish completion on the slower replica.
		return
	}
	if err == nil {
		c.settle(r, att, nil)
		return
	}
	if next, ok := c.failover(&r.request, err, r.Model, "failover"); ok {
		c.send(r, next, att.hedge)
		return
	}
	// Terminal failure for this attempt; another attempt may still be
	// racing, so only the last one standing settles the request.
	if r.nlive == 0 {
		c.settle(r, att, err)
	}
}

// settle decides the request on the report of attempt att, sends cancel
// messages for any still-racing attempts (their eventual reports release the
// router slots), books a winning hedge and then runs the OnSettle observers.
func (c *ShardedCluster) settle(r *ShardedRequest, att attempt, err error) {
	c.stamp(&r.request, err)
	if err == nil {
		c.completed++
		c.modelHist(r.Model).Observe(r.Latency())
	} else {
		c.failed++
	}
	for _, a := range r.inflight() {
		// Rare, so a closure: it holds the id by value because the attempt's
		// record may be recycled while the cancel is in flight.
		agent, id := c.agents[a.dev], a.id
		c.shards.Send(0, a.dev+1, DefaultNetLatency, func() { agent.enqueue(agentOp{cancel: id}) })
		c.rec.Instant(obs.LayerCluster, "cancel_loser", r.ID, int(r.Class), obs.NoDevice, int64(a.dev))
	}
	if err == nil && att.hedge {
		c.hedgeWins++
		c.rec.Instant(obs.LayerCluster, "hedge_win", r.ID, int(r.Class), obs.NoDevice, int64(att.dev))
	}
	for _, fn := range c.onSettle {
		fn(r)
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
//
// Every timer is armed here, on shard 0's heap, with the same HedgeDelay.
// Arming times never decrease and equal deadlines fire in arming (seq)
// order, so timers fire in the order they were armed: the request goes on
// the back of the armed FIFO, and each timer, one shared bound callback,
// takes the front. Each keeps the (time, seq) slot its own closure had.
func (c *ShardedCluster) armHedge(r *ShardedRequest) {
	c.armed.PushBack(r)
	c.shards.Env(0).Schedule(c.cfg.HedgeDelay, c.hedgeTimer)
}

// fireHedge runs the earliest pending hedge timer.
func (c *ShardedCluster) fireHedge() {
	r := c.armed.PopFront()
	if r.settled || r.Hedged {
		return
	}
	c.exclude = c.exclude[:0]
	for _, a := range r.inflight() {
		c.exclude = append(c.exclude, a.dev)
	}
	dev, err := c.router.RouteHedge(r.Model, c.exclude)
	if err != nil {
		return
	}
	r.Hedged = true
	c.hedges++
	c.rec.Instant(obs.LayerCluster, "hedge", r.ID, int(r.Class), obs.NoDevice, int64(dev))
	c.send(r, dev, true)
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

// OnSettle registers fn to run as each request settles, after every tally
// is booked; observers run in registration order. Register before Run. An
// observer must not mutate the request or schedule events.
func (c *ShardedCluster) OnSettle(fn func(*ShardedRequest)) { c.onSettle = append(c.onSettle, fn) }

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
		// sharded engines would otherwise disagree on open-ended downtime.
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

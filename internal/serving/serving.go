// Package serving implements the request-level front-end of the model
// server: clients submit individual inference requests; a per-model batcher
// groups them into input batches (TF-Serving's batching layer, paper §2),
// and each batch becomes one Session::Run job on the execution engine.
//
// This is the piece that turns the paper's "client submits 10 batches"
// workload abstraction into an actual serving system: open-loop request
// arrivals, bounded batch sizes, flush timeouts, and per-request latency
// accounting.
package serving

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
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
	"olympian/internal/profiler"
	"olympian/internal/sim"
)

// Failure-path sentinel errors, surfaced on Request.Err.
var (
	// ErrQueueFull marks a request shed at admission because the model's
	// bounded queue was full.
	ErrQueueFull = errors.New("serving: queue full")
	// ErrExpired marks a request dropped in the batcher because its
	// deadline passed before it was dispatched.
	ErrExpired = errors.New("serving: deadline expired in queue")
	// ErrDrained marks a request removed from the queue by DrainQueued —
	// the device is being taken out of rotation (failover) and the caller
	// should resubmit the request elsewhere.
	ErrDrained = errors.New("serving: queue drained for failover")
	// ErrShed marks a request rejected by the AIMD adaptive admission
	// limiter, or a queued low-priority request displaced by a
	// high-priority arrival under pressure.
	ErrShed = errors.New("serving: shed by adaptive admission")
	// ErrCanceled marks a request cancelled by the caller — typically a
	// hedged duplicate that lost the race to its sibling.
	ErrCanceled = errors.New("serving: request canceled")
)

// Request is one inference request for a single input.
type Request struct {
	// ID is the request's arrival index.
	ID int
	// Model is the target model name.
	Model string
	// Class is the request's priority class; under pressure lower classes
	// are shed first (Submit defaults to overload.Interactive).
	Class overload.Class
	// ArriveAt is when the request entered the server.
	ArriveAt sim.Time
	// Deadline is the absolute completion deadline (0 = none).
	Deadline sim.Time
	// BatchedAt is when the batcher dispatched the request's batch.
	BatchedAt sim.Time
	// FinishAt is when the request completed or failed.
	FinishAt sim.Time
	// BatchSize is the size of the batch the request rode in.
	BatchSize int
	// Err is non-nil if the request was shed, expired, or its batch
	// failed permanently.
	Err error

	done *sim.Event
	// span is the open queue-wait lifecycle span; the zero value means no
	// recorder or not queued.
	span obs.SpanID
	// admitted marks a request counted against its model's admission
	// limiter; cleared when the slot is released.
	admitted bool
	// batch points at the in-flight batch carrying the request, so Cancel
	// can reach the running job after dispatch.
	batch *batchRun
	// canceled marks a dispatched request whose completion must be ignored
	// (its waiter already got ErrCanceled).
	canceled bool
}

// Failed reports whether the request ended in an error.
func (r *Request) Failed() bool { return r.Err != nil }

// Latency returns the request's end-to-end response time, or 0 for a
// request that has not finished (FinishAt is only stamped on completion or
// failure, so an in-flight request must not report a garbage duration).
func (r *Request) Latency() time.Duration {
	if r.FinishAt == 0 || r.FinishAt < r.ArriveAt {
		return 0
	}
	return time.Duration(r.FinishAt - r.ArriveAt)
}

// QueueDelay returns time spent waiting in the batcher, or 0 for a request
// that was shed, expired, or drained before the batcher ever dispatched it
// (BatchedAt is never stamped on those paths).
func (r *Request) QueueDelay() time.Duration {
	if r.BatchedAt == 0 || r.BatchedAt < r.ArriveAt {
		return 0
	}
	return time.Duration(r.BatchedAt - r.ArriveAt)
}

// Config parameterises a server.
type Config struct {
	// Spec is the GPU platform (defaults to GTX1080Ti).
	Spec gpu.Spec
	// Scheduler: nil hooks means vanilla TF-Serving; otherwise Olympian.
	UseOlympian bool
	// Policy applies when UseOlympian (default fair).
	Policy core.Policy
	// Quantum is Q for Olympian runs.
	Quantum time.Duration
	// MaxBatch caps the batch size (default 32).
	MaxBatch int
	// BatchTimeout flushes a non-full batch once its oldest request has
	// waited this long (default 10ms).
	BatchTimeout time.Duration
	// Seed drives randomness.
	Seed int64
	// Jitter is node-duration noise (default 0.03).
	Jitter float64

	// MaxQueue bounds each model's pending queue; requests arriving at a
	// full queue are shed with ErrQueueFull (0 = unbounded).
	MaxQueue int
	// Deadline is the per-request SLO: requests still queued past it are
	// dropped with ErrExpired, and late completions count as deadline
	// misses (0 = no deadline).
	Deadline time.Duration
	// MaxRetries is how many times a failed batch is retried before its
	// requests fail (default 2; negative disables retries).
	MaxRetries int
	// RetryBackoff is the base backoff before a retry, doubled per
	// attempt (default 500us).
	RetryBackoff time.Duration
	// RetryBudget caps total retries server-wide so a persistent fault
	// cannot melt the server into retry work (default 64; negative
	// disables the budget, i.e. zero retries).
	RetryBudget int
	// Faults, when set, injects deterministic failures into the device
	// and executor.
	Faults *faults.Injector
	// Admission, when non-nil, enables the per-model AIMD adaptive
	// admission limiter: the concurrency limit grows on deadline-met
	// completions and shrinks multiplicatively on shed/expiry signals,
	// with strict-priority shedding under pressure. Nil keeps the static
	// MaxQueue-only behavior.
	Admission *overload.AIMDConfig
	// Obs, when non-nil, records the request lifecycle (queue wait, batch
	// assembly, sheds, evictions, retries) through every layer below. Nil
	// keeps the zero-cost disabled path.
	Obs *obs.Recorder
	// Device is this server's device index in the Obs track layout (the
	// cluster layer numbers its replicas; standalone servers are 0).
	Device int
	// IsolateRand gives the device, executor, and scheduler a private random
	// stream derived from Seed instead of the environment's shared source, so
	// this stack's draw sequence depends only on its own event order. The
	// sharded cluster requires it: with a shared source, co-resident stacks'
	// draws would interleave differently between engines.
	IsolateRand bool
	// Slim disables per-request retention: Requests returns nil and Stats is
	// computed from streaming tallies, so multi-million-request sweeps hold
	// memory proportional to the completed-latency samples only. Stats are
	// identical to the retained path.
	Slim bool
	// TestStrandDrainNth, when positive, plants a deliberate bug in
	// DrainQueued for invariant-checker tests: every Nth drained request is
	// silently removed from its queue without being failed, stranding its
	// waiter forever. Production configurations must leave it zero; the chaos
	// fuzzer uses it to prove the request-conservation checker catches real
	// drain-path leaks.
	TestStrandDrainNth int
}

// Validate rejects configurations that are explicit nonsense rather than
// zero-values asking for defaults.
func (c Config) Validate() error {
	if c.MaxQueue < 0 {
		return fmt.Errorf("serving: negative MaxQueue %d (use 0 for unbounded)", c.MaxQueue)
	}
	if c.RetryBackoff < 0 {
		return fmt.Errorf("serving: negative RetryBackoff %v", c.RetryBackoff)
	}
	if c.BatchTimeout < 0 {
		return fmt.Errorf("serving: negative BatchTimeout %v", c.BatchTimeout)
	}
	if c.Deadline < 0 {
		return fmt.Errorf("serving: negative Deadline %v", c.Deadline)
	}
	if c.Admission != nil {
		if err := c.Admission.Validate(); err != nil {
			return fmt.Errorf("serving: %w", err)
		}
	}
	return nil
}

// ModelLatency is one model's completed-request latency percentiles.
type ModelLatency struct {
	Model   string
	Latency metrics.Percentiles
}

// HistPercentiles summarizes a source-recorded histogram as the
// metrics.Percentiles carried by Stats structs; the zero value on an empty
// (or nil) histogram means "no samples". The cluster layer reuses it for its
// fleet-level TTFT/TPOT histograms.
func HistPercentiles(h *obs.Hist) metrics.Percentiles {
	n, p50, p95, p99 := h.Percentiles()
	return metrics.Percentiles{N: n, P50: p50, P95: p95, P99: p99}
}

// ModelAdmission is one model's adaptive-admission limiter state at report
// time.
type ModelAdmission struct {
	// Model is the model name.
	Model string
	// Limit is the AIMD concurrency limit at report time.
	Limit float64
	// Admitted counts requests the limiter let in.
	Admitted int
	// Sheds counts congestion signals (sheds, expiries, deadline misses).
	Sheds int
	// Decreases counts multiplicative decreases that actually fired.
	Decreases int
}

// Stats summarises a server's activity.
type Stats struct {
	Requests      int
	Batches       int
	Completed     int
	Failed        int
	MeanBatchSize float64
	// Latency quantiles in seconds, over completed requests.
	P50, P95, P99 float64
	// PerModel breaks the latency quantiles down by model, sorted by model
	// name so reports and determinism checks see a stable order.
	PerModel []ModelLatency
	// Admission reports each model's AIMD limiter state, sorted by model
	// name; empty when adaptive admission is off.
	Admission []ModelAdmission
	// Utilization of the device over the run.
	Utilization float64
	// Avail summarizes the device's crash-recovery behaviour (MTTR, downtime,
	// availability fraction); the zero value means it never crashed.
	Avail metrics.Availability
	// Degraded tallies faults, retries, and shed load.
	Degraded metrics.Degraded
}

// Server couples the batcher with an execution engine inside a simulation
// environment.
type Server struct {
	env   *sim.Env
	dev   *gpu.Device
	eng   *executor.Engine
	sched *core.Scheduler
	cfg   Config

	queues   map[string][]*Request
	flushers map[string]*sim.Cond
	graphs   map[graphKey]*graph.Graph
	profiles map[graphKey]*profiler.Result
	limiters map[string]*overload.Limiter

	requests []*Request
	reqCount int
	batches  int
	clients  int

	// Slim-mode streaming tallies, mirroring what Stats derives from the
	// retained request slice on the normal path.
	slimCompleted int
	slimFailed    int
	slimSizes     int

	// Latency and queue-delay histograms, recorded at source on every
	// completion/dispatch in both retained and Slim modes; Stats derives its
	// quantiles from these in bounded memory. Registered in the obs registry
	// when recording is on so the telemetry sampler and Prometheus exposition
	// see them; standalone otherwise.
	latHist    *obs.Hist
	qdHist     *obs.Hist
	modelHists map[string]*obs.Hist

	retryLeft int
	degraded  metrics.Degraded

	// draining guards DrainQueued against re-entry: a drained waiter's
	// failover path may submit, cancel, or drain again synchronously.
	draining bool
	// drainSeq counts drained requests for the TestStrandDrainNth bug hook.
	drainSeq int

	// Observability: rec is nil on the disabled fast path; the cached
	// series are nil then too, so every bump below is a no-op. Counters
	// with a tally (batches, degraded) are views over it instead.
	rec         *obs.Recorder
	obsDev      int
	reqC        [overload.NumClasses]*obs.Series
	failReasonC map[string]*obs.Series
	limitCutsC  *obs.Series

	// build constructs a model graph; overridable in tests to exercise
	// the failed-batch path.
	build func(modelName string, batch int) (*graph.Graph, error)
}

type graphKey struct {
	model string
	batch int
}

// NewServer builds a server inside env. Explicitly invalid configurations
// (negative queue caps, timeouts, or deadlines) are rejected rather than
// silently replaced by defaults.
func NewServer(env *sim.Env, cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Spec.Name == "" {
		cfg.Spec = gpu.GTX1080Ti
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 32
	}
	if cfg.BatchTimeout <= 0 {
		cfg.BatchTimeout = 10 * time.Millisecond
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 1200 * time.Microsecond
	}
	if cfg.Jitter == 0 {
		cfg.Jitter = 0.03
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	} else if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 500 * time.Microsecond
	}
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = 64
	} else if cfg.RetryBudget < 0 {
		cfg.RetryBudget = 0
	}
	dev := gpu.New(env, cfg.Spec)
	dev.InjectFaults(cfg.Faults)
	s := &Server{
		env:       env,
		dev:       dev,
		cfg:       cfg,
		queues:    make(map[string][]*Request),
		flushers:  make(map[string]*sim.Cond),
		graphs:    make(map[graphKey]*graph.Graph),
		profiles:  make(map[graphKey]*profiler.Result),
		limiters:  make(map[string]*overload.Limiter),
		retryLeft: cfg.RetryBudget,
		build:     model.Build,
	}
	s.rec = cfg.Obs
	s.obsDev = cfg.Device
	reg := cfg.Obs.Registry()
	devLabel := strconv.Itoa(cfg.Device)
	s.latHist = obs.EnsureHist(reg.Histogram("olympian_serving_request_latency_seconds", "End-to-end request latency.", "device", devLabel))
	s.qdHist = obs.EnsureHist(reg.Histogram("olympian_serving_queue_delay_seconds", "Arrival-to-dispatch queue delay.", "device", devLabel))
	s.modelHists = make(map[string]*obs.Hist)
	for c := overload.Class(0); c < overload.NumClasses; c++ {
		s.reqC[c] = reg.Counter("olympian_serving_requests_total", "Requests admitted to a model queue.", "device", devLabel, "class", c.String())
		reg.CounterView("olympian_serving_completed_total", "Requests completed in time or late.", &s.degraded.ByClass[c].Completed, "device", devLabel, "class", c.String())
	}
	s.failReasonC = make(map[string]*obs.Series, len(failReasons))
	for _, reason := range failReasons {
		s.failReasonC[reason] = reg.Counter("olympian_serving_failed_total", "Requests failed, by reason.", "device", devLabel, "reason", reason)
	}
	reg.CounterView("olympian_serving_batches_total", "Batches dispatched.", &s.batches, "device", devLabel)
	reg.CounterView("olympian_serving_batch_retries_total", "Failed batch attempts retried.", &s.degraded.BatchRetries, "device", devLabel)
	reg.CounterView("olympian_serving_evictions_total", "Queued low-priority requests displaced.", &s.degraded.Evictions, "device", devLabel)
	reg.CounterView("olympian_serving_deadline_misses_total", "Completions past their deadline.", &s.degraded.DeadlineMisses, "device", devLabel)
	s.limitCutsC = reg.Counter("olympian_overload_limit_cuts_total", "AIMD multiplicative decreases.", "device", devLabel)
	var hooks executor.Hooks = executor.NopHooks{}
	if cfg.UseOlympian {
		s.sched = core.New(env, dev, core.Config{
			Policy: cfg.Policy, Quantum: cfg.Quantum,
			SwitchCost: core.DefaultSwitchCost,
		})
		hooks = s.sched
	}
	s.eng = executor.New(env, dev, executor.Config{
		Jitter: cfg.Jitter, Faults: cfg.Faults,
		Obs: cfg.Obs, Device: cfg.Device,
	}, hooks)
	if cfg.IsolateRand {
		// One private stream per stack: its draws (stream weights, driver
		// picks, kernel jitter, policy tie-breaks) all happen in this
		// stack's own event order, which both cluster engines replay
		// identically.
		r := rand.New(rand.NewSource(cfg.Seed + 811))
		dev.SetRand(r)
		s.eng.SetRand(r)
		if s.sched != nil {
			s.sched.SetRand(r)
		}
	}
	return s, nil
}

// failReasons are the failure labels of olympian_serving_failed_total;
// failReason maps a request error onto one of them.
var failReasons = []string{"shed", "queue_full", "expired", "drained", "canceled", "batch_error"}

// failReason classifies a request failure for trace instants and metrics.
func failReason(err error) string {
	switch {
	case errors.Is(err, ErrShed):
		return "shed"
	case errors.Is(err, ErrQueueFull):
		return "queue_full"
	case errors.Is(err, ErrExpired):
		return "expired"
	case errors.Is(err, ErrDrained):
		return "drained"
	case errors.Is(err, ErrCanceled):
		return "canceled"
	default:
		return "batch_error"
	}
}

// limiterObserver adapts a model's AIMD limiter onto the lifecycle
// recorder: every multiplicative decrease becomes an overload-layer
// instant plus a gauge update. Only attached when recording is on.
type limiterObserver struct {
	s     *Server
	gauge *obs.Series
}

func (o *limiterObserver) LimitChanged(limit float64) {
	o.s.rec.Instant(obs.LayerOverload, "limit_cut", obs.NoReq, obs.NoClass, o.s.obsDev, int64(limit))
	o.s.limitCutsC.Inc()
	o.gauge.Set(limit)
}

func (o *limiterObserver) RetryDenied() {}

// Device exposes the server's GPU for measurement.
func (s *Server) Device() *gpu.Device { return s.dev }

// Submit enqueues a request from process context at the default
// (interactive) priority class and returns it; wait on completion with
// req.Wait(p).
func (s *Server) Submit(p *sim.Proc, modelName string) (*Request, error) {
	return s.SubmitClass(p, modelName, overload.Interactive)
}

// batchAdmitFrac is the fraction of the AIMD limit visible to classes below
// Interactive; the remainder is reserved headroom for interactive arrivals.
const batchAdmitFrac = 0.8

// SubmitClass enqueues a request with an explicit priority class. Under
// pressure — the AIMD limiter or the bounded queue at capacity — lower
// classes are shed first: a low-class arrival is rejected outright, while a
// high-class arrival displaces the newest queued request of a strictly
// lower class.
func (s *Server) SubmitClass(p *sim.Proc, modelName string, class overload.Class) (*Request, error) {
	if !class.Valid() {
		return nil, fmt.Errorf("serving: invalid priority class %d", class)
	}
	if _, err := model.TargetRuntime(modelName, 1); err != nil {
		return nil, err
	}
	req := &Request{
		ID:       s.reqCount,
		Model:    modelName,
		Class:    class,
		ArriveAt: p.Now(),
		done:     s.env.NewEvent(),
	}
	if s.cfg.Deadline > 0 {
		req.Deadline = req.ArriveAt.Add(s.cfg.Deadline)
	}
	s.reqCount++
	if !s.cfg.Slim {
		s.requests = append(s.requests, req)
	}
	s.degraded.ByClass[class].Submitted++
	if s.dev.Dead() {
		// Crashed replica: fail fast with the drain sentinel so the cluster
		// failover path resubmits elsewhere instead of queueing into a dead
		// device. (The router should not have picked this replica; this
		// covers the race where a crash lands between routing and submit.)
		s.fail(req, ErrDrained)
		return req, nil
	}
	if _, ok := s.flushers[modelName]; !ok {
		s.startBatcher(modelName)
	}
	lim := s.limiter(modelName)
	frac := 1.0
	if class < overload.Interactive {
		// Lower classes only see a fraction of the learned limit: the top
		// slice is reserved for interactive work, so under pressure batch
		// arrivals shed before any interactive request does.
		frac = batchAdmitFrac
	}
	if lim != nil && !lim.HasCapacityFrac(frac) && !s.evictLower(modelName, class) {
		// Adaptive admission: the model is over its learned concurrency
		// limit and no lower-priority queued work can make room. The
		// limiter's own sheds are flow control working, not a congestion
		// signal — only SLO failures (overflow, expiry, misses) cut the
		// limit.
		s.degraded.AdmissionSheds++
		lim.NoteShed()
		s.shed(req, ErrShed)
		return req, nil
	}
	if s.cfg.MaxQueue > 0 && len(s.queues[modelName]) >= s.cfg.MaxQueue && !s.evictLower(modelName, class) {
		// Bounded queue full: shed at admission rather than let the
		// backlog blow every deadline downstream. Overflow means the
		// learned limit overshot actual capacity, so it is a decrease
		// signal.
		s.degraded.Drops++
		if lim != nil {
			lim.OnCongestion(time.Duration(s.env.Now()))
		}
		s.shed(req, ErrQueueFull)
		return req, nil
	}
	if lim != nil {
		lim.Acquire()
		req.admitted = true
	}
	s.reqC[class].Inc()
	req.span = s.rec.StartSpan(obs.LayerServing, "queue", req.ID, int(class), s.obsDev, 0)
	s.queues[modelName] = append(s.queues[modelName], req)
	// Wake the batcher: it naps on an empty queue and flushes immediately
	// once the batch is full.
	s.flushers[modelName].Broadcast()
	return req, nil
}

// limiter returns the model's AIMD admission limiter, creating it on first
// use; nil when adaptive admission is off.
func (s *Server) limiter(modelName string) *overload.Limiter {
	if s.cfg.Admission == nil {
		return nil
	}
	lim, ok := s.limiters[modelName]
	if !ok {
		lim = overload.NewLimiter(*s.cfg.Admission)
		s.limiters[modelName] = lim
		if s.rec != nil {
			lim.SetObserver(&limiterObserver{
				s: s,
				gauge: s.rec.Registry().Gauge("olympian_overload_admission_limit",
					"Current AIMD concurrency limit.", "device", strconv.Itoa(s.obsDev), "model", modelName),
			})
		}
	}
	return lim
}

// shed rejects a request at admission; fail books the per-class Shed tally.
// Callers decide whether the event is also a congestion signal for the
// model's limiter.
func (s *Server) shed(r *Request, err error) {
	s.fail(r, err)
}

// evictLower displaces the newest queued request of a class strictly below
// class, failing it with ErrShed, and reports whether room was made.
// Strict-priority shedding: interactive arrivals never queue behind batch
// work that will be dropped anyway.
func (s *Server) evictLower(modelName string, class overload.Class) bool {
	q := s.queues[modelName]
	victim := -1
	for i, r := range q {
		if r.Class >= class {
			continue
		}
		if victim < 0 || r.Class <= q[victim].Class {
			victim = i // newest among the lowest class present
		}
	}
	if victim < 0 {
		return false
	}
	v := q[victim]
	s.queues[modelName] = append(q[:victim], q[victim+1:]...)
	s.degraded.Evictions++
	s.rec.Instant(obs.LayerServing, "evict", v.ID, int(v.Class), s.obsDev, int64(class))
	if lim := s.limiters[modelName]; lim != nil {
		lim.NoteShed()
	}
	s.shed(v, ErrShed)
	return true
}

// Wait blocks p until the request's batch has completed.
func (r *Request) Wait(p *sim.Proc) { r.done.Wait(p) }

// Done returns the request's completion event. Cross-shard forwarders
// subscribe to it instead of spawning a waiter process per attempt.
func (r *Request) Done() *sim.Event { return r.done }

// startBatcher spawns the per-model batching loop: it flushes when the
// queue is full or the oldest request has waited past the timeout.
func (s *Server) startBatcher(modelName string) {
	cond := s.env.NewCond("batcher-" + modelName)
	s.flushers[modelName] = cond
	batchName := "batch-" + modelName // every batch proc of this model shares it
	proc := s.env.Go("batcher-"+modelName, func(p *sim.Proc) {
		for {
			for len(s.queues[modelName]) == 0 {
				cond.Wait(p)
			}
			for len(s.queues[modelName]) > 0 && len(s.queues[modelName]) < s.cfg.MaxBatch {
				// Wait out the remaining timeout of the oldest request;
				// more arrivals during the nap may fill the batch early.
				oldest := s.queues[modelName][0].ArriveAt
				remain := s.cfg.BatchTimeout - time.Duration(p.Now()-oldest)
				if remain <= 0 {
					break
				}
				p.Sleep(remain)
			}
			if len(s.queues[modelName]) == 0 {
				continue
			}
			s.flush(modelName, batchName)
		}
	})
	proc.SetDaemon(true)
}

// fail completes a request with an error at the current sim time. It is the
// single point that books the request's terminal state into the per-class
// conservation tallies: sheds count as Shed, queue expiries as Expired, and
// every other failure (drained, canceled, batch error) as Failed — so
// Submitted = Completed + Shed + Expired + Failed holds once a run quiesces.
func (s *Server) fail(r *Request, err error) {
	r.Err = err
	r.FinishAt = s.env.Now()
	switch {
	case errors.Is(err, ErrShed), errors.Is(err, ErrQueueFull):
		s.degraded.ByClass[r.Class].Shed++
	case errors.Is(err, ErrExpired):
		s.degraded.ByClass[r.Class].Expired++
	default:
		s.degraded.ByClass[r.Class].Failed++
	}
	s.rec.EndSpan(r.span)
	r.span = 0
	if s.rec != nil {
		reason := failReason(err)
		s.rec.Instant(obs.LayerServing, reason, r.ID, int(r.Class), s.obsDev, 0)
		s.failReasonC[reason].Inc()
	}
	s.releaseSlot(r)
	if s.cfg.Slim {
		s.slimFailed++
	}
	r.done.Trigger()
}

// releaseSlot retires the request's admission-limiter slot, exactly once.
func (s *Server) releaseSlot(r *Request) {
	if !r.admitted {
		return
	}
	r.admitted = false
	if lim := s.limiters[r.Model]; lim != nil {
		lim.Release()
	}
}

// Cancel aborts a request that has not finished yet, completing it with
// ErrCanceled; it reports whether the cancel landed. A queued request is
// removed from its batcher queue; a dispatched request is detached from its
// batch, and when every rider of an in-flight batch has been cancelled the
// batch's job is aborted through the executor's gang-abort path (the same
// unwind injected job kills use), so the device and scheduler token are
// reclaimed. The cluster router uses this to cancel hedge losers.
func (s *Server) Cancel(p *sim.Proc, r *Request) bool {
	if r.FinishAt != 0 || r.Err != nil {
		return false
	}
	q := s.queues[r.Model]
	for i, qr := range q {
		if qr == r {
			s.queues[r.Model] = append(q[:i], q[i+1:]...)
			s.degraded.Canceled++
			s.fail(r, ErrCanceled)
			return true
		}
	}
	if b := r.batch; b != nil {
		r.canceled = true
		s.degraded.Canceled++
		s.fail(r, ErrCanceled)
		b.live--
		if b.live == 0 && b.job != nil && !b.job.Aborted() {
			// Last rider gone: nobody is waiting on this batch anymore.
			s.eng.AbortJob(p, b.job, ErrCanceled)
		}
		return true
	}
	return false
}

// DrainQueued fails every request still waiting in a batcher queue with
// ErrDrained and returns how many were drained. Requests already dispatched
// in a batch are left to finish on the device (a crash fails them through
// the batch path instead). A cluster router calls this when it takes the
// device out of rotation — stall failover or crash — so the queued work can
// be resubmitted to surviving replicas.
//
// DrainQueued is re-entrant: each queue is detached before its requests are
// failed, so a drained waiter that synchronously submits, cancels, or drains
// again sees consistent queues, and a nested call finds nothing left to do.
// Requests enqueued during the drain (by woken waiters) survive it.
func (s *Server) DrainQueued() int {
	if s.draining {
		return 0
	}
	s.draining = true
	defer func() { s.draining = false }()
	// Drain in sorted model order: map iteration order would leak into the
	// order drained waiters wake (and hence re-route), breaking same-seed
	// determinism.
	names := make([]string, 0, len(s.queues))
	for name := range s.queues {
		names = append(names, name)
	}
	sort.Strings(names)
	n := 0
	for _, name := range names {
		q := s.queues[name]
		s.queues[name] = nil
		for _, r := range q {
			if r.FinishAt != 0 {
				continue // already terminal (e.g. canceled mid-drain)
			}
			if s.cfg.TestStrandDrainNth > 0 {
				s.drainSeq++
				if s.drainSeq%s.cfg.TestStrandDrainNth == 0 {
					// Deliberate test-only bug: drop the request without
					// completing it. See Config.TestStrandDrainNth.
					continue
				}
			}
			s.fail(r, ErrDrained)
			n++
		}
	}
	return n
}

// dropExpired removes requests whose deadline already passed from a
// model's queue, failing each with ErrExpired.
func (s *Server) dropExpired(modelName string) {
	now := s.env.Now()
	q := s.queues[modelName]
	kept := q[:0]
	for _, r := range q {
		if r.Deadline > 0 && now > r.Deadline {
			s.degraded.Expired++
			s.fail(r, ErrExpired)
			if lim := s.limiters[modelName]; lim != nil {
				lim.OnCongestion(time.Duration(now))
			}
			continue
		}
		kept = append(kept, r)
	}
	s.queues[modelName] = kept
}

// flush dispatches the queued requests of a model as one batch job, on a
// proc named procName.
func (s *Server) flush(modelName, procName string) {
	s.dropExpired(modelName)
	batch := s.queues[modelName]
	if len(batch) == 0 {
		return
	}
	if len(batch) > s.cfg.MaxBatch {
		batch = batch[:s.cfg.MaxBatch]
	}
	s.queues[modelName] = s.queues[modelName][len(batch):]
	size := len(batch)
	g, err := s.graphFor(modelName, size)
	if err != nil {
		// Unknown models are rejected at Submit, but the zoo can still
		// fail to build a given batch size. Fail the affected requests
		// instead of taking the whole server down.
		s.degraded.BatchFailures++
		for _, r := range batch {
			s.fail(r, fmt.Errorf("serving: build %s/%d: %w", modelName, size, err))
		}
		return
	}
	now := s.env.Now()
	for _, r := range batch {
		r.BatchedAt = now
		r.BatchSize = size
		s.qdHist.Observe(time.Duration(now - r.ArriveAt))
		// The queue-wait span ends at dispatch; clear the handle so a later
		// batch failure does not re-close it.
		s.rec.EndSpan(r.span)
		r.span = 0
	}
	s.batches++
	s.clients++
	clientID := s.clients
	s.env.Go(procName, func(p *sim.Proc) {
		s.runBatch(p, clientID, g, batch)
	})
}

// batchRun tracks one dispatched batch so hedge-style cancellation can
// reach the running job: live counts riders still waiting on the batch, and
// job is the current (per-attempt) executor job.
type batchRun struct {
	job  *executor.Job
	live int
}

// runBatch executes one batch job, retrying failed attempts with jittered
// exponential backoff while the server-wide retry budget lasts.
func (s *Server) runBatch(p *sim.Proc, clientID int, g *graph.Graph, batch []*Request) {
	br := &batchRun{live: len(batch)}
	for _, r := range batch {
		r.batch = br
	}
	// The batch span covers dispatch through final completion or failure,
	// riding the class track of the request that opened the batch.
	span := s.rec.StartSpan(obs.LayerServing, "batch", obs.NoReq, int(batch[0].Class), s.obsDev, int64(len(batch)))
	defer s.rec.EndSpan(span)
	var jobErr error
	for attempt := 0; ; attempt++ {
		if br.live == 0 {
			// Every rider was cancelled before this attempt launched.
			return
		}
		job := s.eng.NewJob(clientID, g)
		br.job = job
		s.eng.Run(p, job)
		jobErr = job.Err()
		if jobErr == nil {
			break
		}
		if errors.Is(jobErr, ErrCanceled) {
			// Aborted by Cancel because the last rider left: the riders
			// were already completed with ErrCanceled, nothing to retry.
			return
		}
		if errors.Is(jobErr, faults.ErrDeviceCrashed) {
			// The device died under this batch. Retrying locally is
			// pointless — fail the riders with the drain sentinel so the
			// cluster failover path re-dispatches them to live replicas.
			s.degraded.CrashedBatches++
			for _, r := range batch {
				if r.canceled || r.FinishAt != 0 {
					continue
				}
				s.fail(r, ErrDrained)
			}
			return
		}
		if attempt >= s.cfg.MaxRetries || s.retryLeft <= 0 {
			if attempt < s.cfg.MaxRetries {
				s.degraded.RetryDenied++
			}
			s.degraded.BatchFailures++
			for _, r := range batch {
				if r.canceled || r.FinishAt != 0 {
					continue
				}
				s.fail(r, fmt.Errorf("serving: batch failed after %d attempts: %w", attempt+1, jobErr))
			}
			return
		}
		s.retryLeft--
		s.degraded.BatchRetries++
		s.rec.Instant(obs.LayerServing, "batch_retry", obs.NoReq, int(batch[0].Class), s.obsDev, int64(attempt+1))
		// Jittered exponential backoff (the jitter stream is seeded, so
		// same-seed runs retry at identical instants; a nil injector
		// degrades to plain exponential backoff).
		p.Sleep(overload.Backoff(s.cfg.RetryBackoff, attempt, 0.5, s.cfg.Faults.RetryJitter()))
	}
	now := p.Now()
	lim := s.limiters[batch[0].Model]
	for _, r := range batch {
		if r.canceled || r.FinishAt != 0 {
			continue // a terminal state landed mid-flight; never complete twice
		}
		r.FinishAt = now
		s.releaseSlot(r)
		s.degraded.ByClass[r.Class].Completed++
		s.rec.Span(obs.LayerServing, "request", r.ID, int(r.Class), s.obsDev, r.ArriveAt, now, int64(r.BatchSize))
		if r.Deadline > 0 && now > r.Deadline {
			s.degraded.DeadlineMisses++
			s.degraded.ByClass[r.Class].DeadlineMisses++
			s.rec.Instant(obs.LayerServing, "deadline_miss", r.ID, int(r.Class), s.obsDev, 0)
			if lim != nil {
				lim.OnCongestion(time.Duration(now))
			}
		} else if lim != nil {
			lim.OnSuccess()
		}
		s.latHist.Observe(r.Latency())
		s.modelHist(r.Model).Observe(r.Latency())
		if s.cfg.Slim {
			s.slimCompleted++
			s.slimSizes += r.BatchSize
		}
		r.done.Trigger()
	}
}

// graphFor caches graphs (and Olympian profiles) per (model, batch size).
func (s *Server) graphFor(modelName string, batch int) (*graph.Graph, error) {
	key := graphKey{model: modelName, batch: batch}
	if g, ok := s.graphs[key]; ok {
		return g, nil
	}
	g, err := s.build(modelName, batch)
	if err != nil {
		return nil, err
	}
	s.graphs[key] = g
	if s.sched != nil {
		// Profile offline in a side simulation, as the operator would.
		prof, err := profiler.ProfileSolo(g, profiler.Options{Spec: s.cfg.Spec, Seed: s.cfg.Seed + 77})
		if err != nil {
			return nil, err
		}
		s.profiles[key] = prof
		s.sched.SetProfile(g, prof.JobProfile(s.cfg.Quantum))
	}
	return g, nil
}

// Requests returns all requests submitted so far; nil in Slim mode, which
// does not retain them.
func (s *Server) Requests() []*Request { return s.requests }

// AvailAt summarizes the device's crash-recovery behaviour normalized against
// the caller's clock; the zero value means the device never crashed. The
// sharded cluster passes the shard horizon so both engines normalize
// identically.
func (s *Server) AvailAt(now sim.Time) metrics.Availability {
	if s.dev.Crashes() == 0 {
		return metrics.Availability{}
	}
	a := metrics.Availability{
		Crashes:  s.dev.Crashes(),
		Revives:  s.dev.Revives(),
		Downtime: s.dev.DowntimeAt(now),
		MTTR:     s.dev.MTTR(),
		Frac:     1,
	}
	if now > 0 {
		a.Frac = 1 - a.Downtime.Seconds()/time.Duration(now).Seconds()
	}
	return a
}

// modelHist lazily creates the per-model latency histogram. First-completion
// order is deterministic for a given seed, so registration order (and thus
// sampler traversal) matches across engines.
func (s *Server) modelHist(modelName string) *obs.Hist {
	h, ok := s.modelHists[modelName]
	if !ok {
		h = obs.EnsureHist(s.rec.Registry().Histogram(
			"olympian_serving_model_latency_seconds", "Request latency by model.",
			"device", strconv.Itoa(s.obsDev), "model", modelName))
		s.modelHists[modelName] = h
	}
	return h
}

// Stats summarises completed requests. Latency quantiles come from the
// source-recorded histograms in both retained and Slim modes (≤ ~19%
// relative error from log bucketing), so the two modes report identical
// values with bounded memory.
func (s *Server) Stats() Stats {
	st := Stats{Requests: s.reqCount, Batches: s.batches}
	var sizes int
	if s.cfg.Slim {
		st.Completed, st.Failed = s.slimCompleted, s.slimFailed
		sizes = s.slimSizes
	}
	for _, r := range s.requests {
		if r.Failed() {
			st.Failed++
			continue
		}
		if r.FinishAt == 0 {
			continue
		}
		st.Completed++
		sizes += r.BatchSize
	}
	if s.latHist.Count() > 0 {
		st.P50 = s.latHist.Quantile(0.50)
		st.P95 = s.latHist.Quantile(0.95)
		st.P99 = s.latHist.Quantile(0.99)
	}
	names := make([]string, 0, len(s.modelHists))
	for name := range s.modelHists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st.PerModel = append(st.PerModel, ModelLatency{
			Model: name, Latency: HistPercentiles(s.modelHists[name]),
		})
	}
	limNames := make([]string, 0, len(s.limiters))
	for name := range s.limiters {
		limNames = append(limNames, name)
	}
	sort.Strings(limNames)
	for _, name := range limNames {
		lim := s.limiters[name]
		st.Admission = append(st.Admission, ModelAdmission{
			Model: name, Limit: lim.Limit(), Admitted: lim.Admitted(),
			Sheds: lim.Sheds(), Decreases: lim.Decreases(),
		})
	}
	if st.Completed > 0 {
		st.MeanBatchSize = float64(sizes) / float64(st.Completed)
	}
	if now := s.env.Now(); now > 0 {
		st.Utilization = s.dev.TotalBusy().Seconds() / now.Seconds()
	}
	st.Avail = s.AvailAt(s.env.Now())
	st.Degraded = s.degraded
	st.Degraded.DeviceCrashes = s.dev.Crashes()
	st.Degraded.DeviceRevives = s.dev.Revives()
	st.Degraded.KernelRetries = s.eng.KernelRetries()
	if s.cfg.Faults != nil {
		c := s.cfg.Faults.Counters()
		st.Degraded.KernelFaults = c.KernelFaults
		st.Degraded.DeviceStalls = c.DeviceStalls
		st.Degraded.JobAborts = c.JobAborts
	}
	return st
}

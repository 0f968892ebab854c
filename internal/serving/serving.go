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
	"slices"
	"strconv"
	"strings"
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
	// are shed first.
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

	done sim.Event
	// span is the open queue-wait lifecycle span; the zero value means no
	// recorder or not queued.
	span obs.SpanID
	// admitted marks a request counted against its model's admission
	// limiter; cleared when the slot is released.
	admitted bool
	// batcher is the model's batcher, set when the request is queued.
	batcher *batcher
	// batch points at the in-flight batch carrying the request, so Cancel
	// can reach the running job after dispatch.
	batch *batchRun
}

// Latency returns the request's end-to-end response time, or 0 for a
// request that has not finished (FinishAt is only stamped on completion or
// failure, so an in-flight request must not report a garbage duration).
func (r *Request) Latency() time.Duration {
	if r.FinishAt == 0 || r.FinishAt < r.ArriveAt {
		return 0
	}
	return time.Duration(r.FinishAt - r.ArriveAt)
}

// Config parameterises a server.
type Config struct {
	// Spec is the GPU platform (defaults to GTX1080Ti).
	Spec gpu.Spec
	// UseOlympian selects the Olympian scheduler (fair policy, Q =
	// core.DefaultQuantum); false runs vanilla TF-Serving.
	UseOlympian bool
	// MaxBatch caps the batch size (default 32).
	MaxBatch int
	// BatchTimeout flushes a non-full batch once its oldest request has
	// waited this long (default 10ms).
	BatchTimeout time.Duration
	// Seed seeds the server's offline profiling runs; the device stack's
	// stream is NewServer's rng.
	Seed int64
	// Jitter is node-duration noise (default executor.DefaultJitter).
	Jitter float64

	// MaxQueue bounds each model's pending queue; requests arriving at a
	// full queue are shed with ErrQueueFull (0 = unbounded).
	MaxQueue int
	// Deadline is the per-request SLO: requests still queued past it are
	// dropped with ErrExpired, and late completions count as deadline
	// misses (0 = no deadline).
	Deadline time.Duration
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
	// TestStrandDrainNth, when positive, plants a deliberate bug in
	// DrainQueued for invariant-checker tests: every Nth drained request is
	// silently removed from its queue without being failed, stranding its
	// waiter forever. Production configurations must leave it zero; the chaos
	// fuzzer uses it to prove the request-conservation checker catches real
	// drain-path leaks.
	TestStrandDrainNth int
}

// A failed batch is retried up to batchRetries times after a jittered
// exponential backoff from batchRetryBackoff; batchRetryBudget caps retries
// server-wide so a persistent fault cannot melt the server into retry work.
const (
	batchRetries      = 2
	batchRetryBackoff = 500 * time.Microsecond
	batchRetryBudget  = 64
)

// Validate rejects configurations that are explicit nonsense rather than
// zero-values asking for defaults.
func (c Config) Validate() error {
	if c.MaxQueue < 0 {
		return fmt.Errorf("serving: negative MaxQueue %d (use 0 for unbounded)", c.MaxQueue)
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

	// byName holds each model's batcher, and models lists them sorted by
	// model name, so DrainQueued and Stats visit them in a fixed order;
	// spare is an empty queue array DrainQueued swaps in for each queue it
	// detaches.
	byName map[string]*batcher
	models []*batcher
	spare  []*Request
	free   []*batchRun // records of finished batch procs, for reuse

	reqCount int
	batches  int
	// batchSizes sums the batch sizes completed requests rode in, for
	// Stats.MeanBatchSize.
	batchSizes int

	// Latency and queue-delay histograms, recorded at source on every
	// completion/dispatch; Stats derives its quantiles from these in bounded
	// memory. Registered in the obs registry when recording is on so the
	// telemetry sampler and Prometheus exposition see them; standalone
	// otherwise.
	latHist *obs.Hist
	qdHist  *obs.Hist

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

// NewServer builds a server inside env whose device stack draws from rng:
// stream weights, driver picks, kernel jitter and policy tie-breaks (see
// gpu.New). A standalone server may pass env.Rand(); a sharded cluster
// passes each stack a private stream, so its draws follow only its own
// event order, which both cluster engines replay identically. Explicitly
// invalid configurations (negative queue caps, timeouts, or deadlines) are
// rejected rather than silently replaced by defaults.
func NewServer(env *sim.Env, cfg Config, rng *rand.Rand) (*Server, error) {
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
	if cfg.Jitter == 0 {
		cfg.Jitter = executor.DefaultJitter
	}
	dev := gpu.New(env, cfg.Spec, rng)
	dev.InjectFaults(cfg.Faults)
	s := &Server{
		env:       env,
		dev:       dev,
		cfg:       cfg,
		byName:    make(map[string]*batcher),
		retryLeft: batchRetryBudget,
		build:     model.Build,
	}
	s.rec = cfg.Obs
	s.obsDev = cfg.Device
	reg := cfg.Obs.Registry()
	devLabel := strconv.Itoa(cfg.Device)
	s.latHist = obs.EnsureHist(reg.Histogram("olympian_serving_request_latency_seconds", "End-to-end request latency.", "device", devLabel))
	s.qdHist = obs.EnsureHist(reg.Histogram("olympian_serving_queue_delay_seconds", "Arrival-to-dispatch queue delay.", "device", devLabel))
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
	for c := range s.degraded.ByClass {
		reg.CounterView("olympian_serving_deadline_misses_total", "Completions past their deadline.", &s.degraded.ByClass[c].DeadlineMisses, "device", devLabel)
	}
	s.limitCutsC = reg.Counter("olympian_overload_limit_cuts_total", "AIMD multiplicative decreases.", "device", devLabel)
	var hooks executor.Hooks = executor.NopHooks{}
	if cfg.UseOlympian {
		s.sched = core.New(env, dev, core.Config{SwitchCost: core.DefaultSwitchCost})
		hooks = s.sched
	}
	s.eng = executor.New(env, dev, executor.Config{
		Jitter: cfg.Jitter, Faults: cfg.Faults,
		Obs: cfg.Obs, Device: cfg.Device,
	}, hooks)
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

// Device exposes the server's GPU for measurement.
func (s *Server) Device() *gpu.Device { return s.dev }

// SubmitClass enqueues a new request with an explicit priority class; it is
// Submit on a record of its own, returned for the caller to wait on with
// req.Done().
func (s *Server) SubmitClass(modelName string, class overload.Class) (*Request, error) {
	req := new(Request)
	if err := s.Submit(req, modelName, class); err != nil {
		return nil, err
	}
	return req, nil
}

// Submit enqueues r, a record the caller holds, as one request with an
// explicit priority class. Under pressure — the AIMD limiter or the bounded
// queue at capacity — lower classes are shed first: a low-class arrival is
// rejected outright, while a high-class arrival displaces the newest queued
// request of a strictly lower class. It never parks, so event callbacks may
// call it.
//
// Submit initializes r only after its synchronous rejections (an invalid
// class, an unknown model) have passed, and every field is reset then. The
// server holds r until its Done event fires; the caller may reuse it after
// that, but not before.
func (s *Server) Submit(r *Request, modelName string, class overload.Class) error {
	if !class.Valid() {
		return fmt.Errorf("serving: invalid priority class %d", class)
	}
	if _, err := model.TargetRuntime(modelName, 1); err != nil {
		return err
	}
	*r = Request{
		ID:       s.reqCount,
		Model:    modelName,
		Class:    class,
		ArriveAt: s.env.Now(),
		done:     s.env.MakeEvent(),
	}
	if s.cfg.Deadline > 0 {
		r.Deadline = r.ArriveAt.Add(s.cfg.Deadline)
	}
	s.reqCount++
	s.degraded.ByClass[class].Submitted++
	if s.dev.Dead() {
		// Crashed replica: fail fast with the drain sentinel so the cluster
		// failover path resubmits elsewhere instead of queueing into a dead
		// device. (The router should not have picked this replica; this
		// covers the race where a crash lands between routing and submit.)
		s.fail(r, ErrDrained)
		return nil
	}
	b := s.byName[modelName]
	if b == nil {
		b = s.newBatcher(modelName)
	}
	if b.lim != nil && !b.lim.HasCapacity(class, 1) && !s.evictLower(b, class) {
		// Adaptive admission: the model is over its class's share of the
		// learned concurrency limit (batch sees only part of it, so under
		// pressure batch arrivals shed before any interactive request does)
		// and no lower-priority queued work can make room. The
		// limiter's own sheds are flow control working, not a congestion
		// signal — only SLO failures (overflow, expiry, misses) cut the
		// limit.
		s.degraded.AdmissionSheds++
		b.lim.NoteShed()
		s.fail(r, ErrShed)
		return nil
	}
	if s.cfg.MaxQueue > 0 && len(b.queue) >= s.cfg.MaxQueue && !s.evictLower(b, class) {
		// Bounded queue full: shed at admission rather than let the
		// backlog blow every deadline downstream. Overflow means the
		// learned limit overshot actual capacity, so it is a decrease
		// signal.
		s.degraded.Drops++
		s.congest(b, s.env.Now())
		s.fail(r, ErrQueueFull)
		return nil
	}
	if b.lim != nil {
		b.lim.Acquire(1)
		r.admitted = true
	}
	s.reqC[class].Inc()
	r.span = s.rec.StartSpan(obs.LayerServing, "queue", r.ID, int(class), s.obsDev, 0)
	r.batcher = b
	b.queue = append(b.queue, r)
	// Wake an idle batcher. One sleeping out its oldest request's timeout
	// is not woken, so a batch that fills meanwhile still waits for that
	// timeout (TF-Serving would close it at once).
	if !b.armed {
		b.armed = true
		s.env.Schedule(0, b.wakeFn)
	}
	return nil
}

// batcher is one model's batching queue (TF-Serving's batching layer): it
// flushes the queue as a batch when it wakes to a full queue or to an oldest
// request that has waited BatchTimeout. It also holds the model's admission limiter,
// latency histogram and graph cache. Event callbacks run it (see wake).
type batcher struct {
	s         *Server
	model     string
	batchName string // every batch proc of the model shares it
	queue     []*Request
	// lim is the model's AIMD admission limiter, nil when adaptive
	// admission is off; limitGauge is its limit, nil also when recording
	// is off.
	lim        *overload.Limiter
	limitGauge *obs.Series
	hist       *obs.Hist            // latency histogram, registered at the first completion
	graphs     map[int]*graph.Graph // by batch size
	// armed is set while a wake is scheduled or running; an arrival at an
	// unarmed batcher schedules one.
	armed  bool
	wakeFn func() // wake, bound once
}

// newBatcher makes the model's batcher and schedules its first wake.
func (s *Server) newBatcher(modelName string) *batcher {
	b := &batcher{s: s, model: modelName, batchName: "batch-" + modelName, graphs: make(map[int]*graph.Graph)}
	b.wakeFn = b.wake
	if s.cfg.Admission != nil {
		b.lim = overload.NewLimiter(*s.cfg.Admission, overload.Requests)
		b.limitGauge = s.rec.Registry().Gauge("olympian_overload_admission_limit",
			"Current AIMD concurrency limit.", "device", strconv.Itoa(s.obsDev), "model", modelName)
	}
	s.byName[modelName] = b
	// Insert into a clipped copy, so a DrainQueued loop already ranging over
	// the old list never sees it shift.
	i, _ := slices.BinarySearchFunc(s.models, modelName, func(b *batcher, name string) int { return strings.Compare(b.model, name) })
	s.models = slices.Insert(slices.Clip(s.models), i, b)
	b.armed = true
	s.env.Schedule(0, b.wakeFn)
	return b
}

// wake runs the batcher. While requests are queued it flushes a full queue,
// or one whose oldest request has timed out, and otherwise sleeps until that
// timeout; a sleeping batcher ignores arrivals. On an empty queue it
// disarms until the next arrival.
func (b *batcher) wake() {
	s := b.s
	for len(b.queue) > 0 {
		if len(b.queue) < s.cfg.MaxBatch {
			if remain := s.cfg.BatchTimeout - time.Duration(s.env.Now()-b.queue[0].ArriveAt); remain > 0 {
				s.env.Schedule(remain, b.wakeFn)
				return
			}
		}
		s.flush(b)
	}
	b.armed = false
}

// congest feeds an SLO failure (a queue overflow, an in-queue expiry, a
// deadline miss) to the model's limiter at now, if it has one. A limit cut
// becomes an overload-layer instant, a counter tick and a gauge update.
func (s *Server) congest(b *batcher, now sim.Time) {
	if b.lim == nil || !b.lim.OnCongestion(time.Duration(now)) {
		return
	}
	s.rec.Instant(obs.LayerOverload, "limit_cut", obs.NoReq, obs.NoClass, s.obsDev, int64(b.lim.Limit()))
	s.limitCutsC.Inc()
	b.limitGauge.Set(b.lim.Limit())
}

// evictLower displaces the newest queued request of a class strictly below
// class, failing it with ErrShed, and reports whether room was made.
// Strict-priority shedding: interactive arrivals never queue behind batch
// work that will be dropped anyway.
func (s *Server) evictLower(b *batcher, class overload.Class) bool {
	q := b.queue
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
	b.queue = append(q[:victim], q[victim+1:]...)
	s.degraded.Evictions++
	s.rec.Instant(obs.LayerServing, "evict", v.ID, int(v.Class), s.obsDev, int64(class))
	if b.lim != nil {
		b.lim.NoteShed()
	}
	s.fail(v, ErrShed)
	return true
}

// Done returns the request's completion event. Cross-shard forwarders
// subscribe to it instead of spawning a waiter process per attempt.
func (r *Request) Done() *sim.Event { return &r.done }

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
	r.done.Trigger()
}

// releaseSlot retires the request's admission-limiter slot, exactly once.
func (s *Server) releaseSlot(r *Request) {
	if !r.admitted {
		return
	}
	r.admitted = false
	r.batcher.lim.Release(1)
}

// Cancel aborts a request that has not finished yet, completing it with
// ErrCanceled; it reports whether the cancel landed. A queued request is
// removed from its batcher queue; a dispatched request is dropped from its
// batch, so the batch never touches it again and its caller may reuse the
// record as soon as Done fires. When every rider of an in-flight batch has
// been cancelled the batch's job is aborted through the executor's
// gang-abort path (the same unwind injected job kills use), so the device
// and scheduler token are reclaimed. The cluster router uses this to cancel
// hedge losers. It never parks.
func (s *Server) Cancel(r *Request) bool {
	if r.FinishAt != 0 || r.Err != nil {
		return false
	}
	if b := r.batcher; b != nil {
		if i := slices.Index(b.queue, r); i >= 0 {
			b.queue = slices.Delete(b.queue, i, i+1)
			s.degraded.Canceled++
			s.fail(r, ErrCanceled)
			return true
		}
	}
	if br := r.batch; br != nil {
		br.riders[slices.Index(br.riders, r)] = nil
		r.batch = nil
		s.degraded.Canceled++
		s.fail(r, ErrCanceled)
		br.live--
		if br.live == 0 && !br.job.Aborted() {
			// Last rider gone: nobody is waiting on this batch anymore.
			s.eng.AbortJob(&br.job, ErrCanceled)
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
	// determinism. Each queue is detached by swapping in the spare array,
	// and its own array, cleared, becomes the next spare.
	n := 0
	for _, b := range s.models {
		q := b.queue
		b.queue = s.spare
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
		clear(q)
		s.spare = q[:0]
	}
	return n
}

// dropExpired removes requests whose deadline already passed from a
// model's queue, failing each with ErrExpired.
func (s *Server) dropExpired(b *batcher) {
	now := s.env.Now()
	q := b.queue
	kept := q[:0]
	for _, r := range q {
		if r.Deadline > 0 && now > r.Deadline {
			s.fail(r, ErrExpired)
			s.congest(b, now)
			continue
		}
		kept = append(kept, r)
	}
	clear(q[len(kept):])
	b.queue = kept
}

// flush dispatches the model's queued requests as one batch job.
func (s *Server) flush(b *batcher) {
	s.dropExpired(b)
	q := b.queue
	if len(q) == 0 {
		return
	}
	// The batch gets its own storage and the queue shifts down in place, so
	// later arrivals refill the queue's array instead of growing a new one.
	size := min(len(q), s.cfg.MaxBatch)
	br := s.newBatchRun()
	br.riders = append(br.riders, q[:size]...)
	rest := copy(q, q[size:])
	clear(q[rest:])
	b.queue = q[:rest]
	g, err := s.graphFor(b, size)
	if err != nil {
		// Unknown models are rejected at SubmitClass, but the zoo can still
		// fail to build a given batch size. Fail the affected requests
		// instead of taking the whole server down.
		s.degraded.BatchFailures++
		for _, r := range br.riders {
			s.fail(r, fmt.Errorf("serving: build %s/%d: %w", b.model, size, err))
		}
		s.recycle(br)
		return
	}
	now := s.env.Now()
	for _, r := range br.riders {
		r.BatchedAt = now
		r.BatchSize = size
		s.qdHist.Observe(time.Duration(now - r.ArriveAt))
		// The queue-wait span ends at dispatch; clear the handle so a later
		// batch failure does not re-close it.
		s.rec.EndSpan(r.span)
		r.span = 0
	}
	s.batches++
	br.graph = g
	br.stream.Reset(s.batches)
	s.env.Go(b.batchName, br.runFn)
}

// batchRun is one dispatched batch and everything its proc runs on: the
// riders, the graph, the stream (whose ID is the batch's client ID) and the
// executor job of the current attempt, both held by value, and the proc
// body, bound once. live counts riders still waiting on the batch, so
// hedge-style cancellation can reach the running job; a cancelled rider's
// slot is nil. The server recycles a record once its proc ends, when every
// rider is terminal.
type batchRun struct {
	s      *Server
	riders []*Request
	graph  *graph.Graph
	stream gpu.Stream
	job    executor.Job
	live   int
	runFn  func(*sim.Proc) // run, bound once so a dispatch allocates no closure
}

// newBatchRun takes a record from the free list or makes one.
func (s *Server) newBatchRun() *batchRun {
	if n := len(s.free); n > 0 {
		br := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return br
	}
	br := &batchRun{s: s}
	br.runFn = br.run
	return br
}

// run is a batch proc's body: it runs the batch, then returns the record.
func (br *batchRun) run(p *sim.Proc) {
	br.s.runBatch(p, br)
	br.s.recycle(br)
}

// recycle returns a record whose riders are all terminal to the free list,
// dropping its references to them and to the graph.
func (s *Server) recycle(br *batchRun) {
	for _, r := range br.riders {
		if r != nil {
			r.batch = nil
		}
	}
	clear(br.riders)
	br.riders = br.riders[:0]
	br.graph = nil
	s.free = append(s.free, br)
}

// runBatch executes one batch job, retrying failed attempts with jittered
// exponential backoff while the server-wide retry budget lasts.
func (s *Server) runBatch(p *sim.Proc, br *batchRun) {
	// Cancel drops a rider by nilling its slot, so every loop below skips
	// nil slots, and the batch's class and batcher are read up front.
	batch := br.riders
	br.live = len(batch)
	for _, r := range batch {
		r.batch = br
	}
	class, b := batch[0].Class, batch[0].batcher
	// The batch span covers dispatch through final completion or failure,
	// riding the class track of the request that opened the batch.
	span := s.rec.StartSpan(obs.LayerServing, "batch", obs.NoReq, int(class), s.obsDev, int64(len(batch)))
	defer s.rec.EndSpan(span)
	var jobErr error
	for attempt := 0; ; attempt++ {
		if br.live == 0 {
			// Every rider was cancelled before this attempt launched.
			return
		}
		s.eng.InitJob(&br.job, &br.stream, br.graph)
		s.eng.Run(p, &br.job)
		jobErr = br.job.Err()
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
				if r == nil {
					continue
				}
				s.fail(r, ErrDrained)
			}
			return
		}
		if attempt >= batchRetries || s.retryLeft <= 0 {
			if attempt < batchRetries {
				s.degraded.RetryDenied++
			}
			s.degraded.BatchFailures++
			for _, r := range batch {
				if r == nil {
					continue
				}
				s.fail(r, fmt.Errorf("serving: batch failed after %d attempts: %w", attempt+1, jobErr))
			}
			return
		}
		s.retryLeft--
		s.degraded.BatchRetries++
		s.rec.Instant(obs.LayerServing, "batch_retry", obs.NoReq, int(class), s.obsDev, int64(attempt+1))
		// Jittered exponential backoff (the jitter stream is seeded, so
		// same-seed runs retry at identical instants; a nil injector
		// degrades to plain exponential backoff).
		p.Sleep(overload.Backoff(batchRetryBackoff, attempt, 0.5, s.cfg.Faults.RetryJitter()))
	}
	now := p.Now()
	for _, r := range batch {
		if r == nil {
			continue
		}
		r.FinishAt = now
		s.releaseSlot(r)
		s.degraded.ByClass[r.Class].Completed++
		s.rec.Span(obs.LayerServing, "request", r.ID, int(r.Class), s.obsDev, r.ArriveAt, now, int64(r.BatchSize))
		if r.Deadline > 0 && now > r.Deadline {
			s.degraded.ByClass[r.Class].DeadlineMisses++
			s.rec.Instant(obs.LayerServing, "deadline_miss", r.ID, int(r.Class), s.obsDev, 0)
			s.congest(b, now)
		} else if b.lim != nil {
			b.lim.OnSuccess(1)
		}
		s.latHist.Observe(r.Latency())
		b.latency().Observe(r.Latency())
		s.batchSizes += r.BatchSize
		r.done.Trigger()
	}
}

// graphFor caches the model's graphs per batch size, registering each new
// graph's Olympian profile with the scheduler.
func (s *Server) graphFor(b *batcher, batch int) (*graph.Graph, error) {
	if g, ok := b.graphs[batch]; ok {
		return g, nil
	}
	g, err := s.build(b.model, batch)
	if err != nil {
		return nil, err
	}
	b.graphs[batch] = g
	if s.sched != nil {
		// Profile offline in a side simulation, as the operator would.
		prof, err := profiler.ProfileSolo(g, profiler.Options{Spec: s.cfg.Spec, Seed: s.cfg.Seed + 77})
		if err != nil {
			return nil, err
		}
		s.sched.SetProfile(g, prof.JobProfile(core.DefaultQuantum))
	}
	return g, nil
}

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

// latency lazily creates the model's latency histogram. First-completion
// order is deterministic for a given seed, so registration order (and thus
// sampler traversal) matches across engines.
func (b *batcher) latency() *obs.Hist {
	if b.hist == nil {
		b.hist = obs.EnsureHist(b.s.rec.Registry().Histogram(
			"olympian_serving_model_latency_seconds", "Request latency by model.",
			"device", strconv.Itoa(b.s.obsDev), "model", b.model))
	}
	return b.hist
}

// Stats summarises completed requests. Completed, Failed, Expired and
// DeadlineMisses sum the per-class tallies fail and runBatch book; latency
// quantiles come from the source-recorded histograms (≤ ~19% relative error
// from log bucketing), so memory stays bounded however many were served.
func (s *Server) Stats() Stats {
	st := Stats{Requests: s.reqCount, Batches: s.batches, Degraded: s.degraded}
	for _, c := range s.degraded.ByClass {
		st.Completed += c.Completed
		st.Failed += c.Shed + c.Expired + c.Failed
		st.Degraded.Expired += c.Expired
		st.Degraded.DeadlineMisses += c.DeadlineMisses
	}
	if s.latHist.Count() > 0 {
		st.P50 = s.latHist.Quantile(0.50)
		st.P95 = s.latHist.Quantile(0.95)
		st.P99 = s.latHist.Quantile(0.99)
	}
	for _, b := range s.models {
		if b.hist != nil {
			st.PerModel = append(st.PerModel, ModelLatency{Model: b.model, Latency: HistPercentiles(b.hist)})
		}
		if lim := b.lim; lim != nil {
			st.Admission = append(st.Admission, ModelAdmission{
				Model: b.model, Limit: lim.Limit(), Admitted: lim.Admitted(),
				Sheds: lim.Sheds(), Decreases: lim.Decreases(),
			})
		}
	}
	if st.Completed > 0 {
		st.MeanBatchSize = float64(s.batchSizes) / float64(st.Completed)
	}
	if now := s.env.Now(); now > 0 {
		st.Utilization = s.dev.TotalBusy().Seconds() / now.Seconds()
	}
	st.Avail = s.AvailAt(s.env.Now())
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

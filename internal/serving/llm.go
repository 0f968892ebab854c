// LLM serving front-end: continuous batching over an autoregressive model.
//
// The CNN path batches requests, flushes the batch through the executor, and
// starts over. Autoregressive generation cannot work that way: requests
// finish at different token counts, so a fixed batch would hold its slots
// until the longest member drains. The LLMServer instead re-forms the batch
// at every token boundary — between fused decode steps — so sequences join
// the moment their prefill lands and leave the moment their budget is met,
// bounded by MaxSeqs.
//
// Memory is the other scheduler input: every sequence's KV cache grows one
// token per step through gpu.KVCache, competing with the resident weights.
// When growth fails the engine preempts the newest running sequence
// (recompute style: its cache is dropped and the sequence re-prefills over
// prompt + generated-so-far), and a sequence that cannot grow even alone
// fails with ErrKVExhausted rather than livelocking on self-preemption.
//
// Accounting keeps partial work visible: a request failed mid-decode (crash,
// cancel, exhaustion) reports the tokens it already delivered — Partial and
// PartialTokens in LLMStats — instead of counting as a plain failure, and
// queue delay / latency never go negative for unstarted requests.
package serving

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"olympian/internal/faults"
	"olympian/internal/fifo"
	"olympian/internal/gpu"
	"olympian/internal/llm"
	"olympian/internal/metrics"
	"olympian/internal/model"
	"olympian/internal/obs"
	"olympian/internal/overload"
	"olympian/internal/sim"
)

// kvBlockTokens is the KV-cache block granularity in tokens.
const kvBlockTokens = 16

// ErrKVExhausted marks a sequence failed because its KV cache cannot fit on
// the device even with every other sequence preempted.
var ErrKVExhausted = errors.New("serving: kv cache exhausted")

// LLMConfig configures one autoregressive serving replica.
type LLMConfig struct {
	// Spec is the device; zero value selects the reference GTX 1080 Ti.
	Spec gpu.Spec
	// Model is the served LLM (default model.LLMTiny). Weights are resident
	// for the server's lifetime.
	Model string
	// Role selects which stages run here: Colocated (default), PrefillRole,
	// or DecodeRole.
	Role llm.Role
	// MaxSeqs bounds the decode batch width (default 8).
	MaxSeqs int
	// MaxQueue bounds the prefill queue; beyond it submissions are shed with
	// ErrQueueFull (0 = unbounded).
	MaxQueue int
	// TTFTDeadline, when positive, sheds queued prefills whose first token
	// was not produced by arrival+deadline: they expire un-run (ErrExpired)
	// instead of burning prefill compute on an already-blown SLO. Recomputes
	// and ingests (first token already delivered) are exempt.
	TTFTDeadline time.Duration
	// TPOTBudget, when positive, counts completions whose mean inter-token
	// gap exceeds it as decode SLO misses (per-class DeadlineMisses).
	TPOTBudget time.Duration
	// Admission, when non-nil, arms a token-rate AIMD gate on Submit: each
	// request is charged its token cost (prompt + its own output budget, an
	// oracle prediction) and sheds with ErrShed when the class's fraction of
	// the adaptive token limit is full. KV pressure and TTFT expiries feed
	// the limiter's congestion signal; its own sheds never do.
	Admission *overload.AIMDConfig
	// KVWatermark in (0,1], when set, arms degraded mode: KV utilization at
	// or above this fraction of the post-weights memory budget signals
	// congestion and truncates batch-class output budgets to DegradedTail
	// further tokens, explicitly accounted in Truncated/TruncatedTokens.
	KVWatermark float64
	// DegradedTail is how many further tokens a batch-class sequence may
	// generate once degraded mode engages (default 8 when KVWatermark set).
	DegradedTail int
	// Seed derives the server's private random stream: the device draws
	// from it, never from the environment's shared source, so multi-replica
	// topologies stay deterministic regardless of construction order.
	Seed int64
	// Faults optionally injects kernel faults, stalls, and crashes.
	Faults *faults.Injector
	// Obs optionally records lifecycle events; Device labels them.
	Obs    *obs.Recorder
	Device int
}

// Validate rejects explicit nonsense, mirroring Config.Validate on the CNN
// path: zero values mean "use the default / disable the knob" throughout
// this package, so a negative bound, a watermark outside [0,1], or an
// invalid admission config is a caller bug worth failing loudly on.
// NewLLMServer calls it; callers building configs programmatically can too.
func (c LLMConfig) Validate() error {
	if c.MaxSeqs < 0 || c.MaxQueue < 0 {
		return fmt.Errorf("serving: negative llm batch/queue bound (maxSeqs=%d maxQueue=%d)", c.MaxSeqs, c.MaxQueue)
	}
	if c.TTFTDeadline < 0 || c.TPOTBudget < 0 {
		return fmt.Errorf("serving: negative llm slo budget (ttft=%v tpot=%v)", c.TTFTDeadline, c.TPOTBudget)
	}
	if c.KVWatermark < 0 || c.KVWatermark > 1 {
		return fmt.Errorf("serving: llm kv watermark %v outside [0,1]", c.KVWatermark)
	}
	if c.DegradedTail < 0 {
		return fmt.Errorf("serving: negative llm degraded tail %d", c.DegradedTail)
	}
	if c.Admission != nil {
		if err := c.Admission.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// LLMStats is one replica's accounting snapshot. Every field is comparable,
// so differential tests DeepEqual it across engines.
type LLMStats struct {
	Model string
	// Requests counts all arrivals (Submit and Ingest, including sheds);
	// conservation: Requests == Completed + HandedOff + Failed + Shed +
	// Expired.
	Requests  int
	Completed int
	// HandedOff counts prefill-role sequences shipped to a decode replica.
	HandedOff int
	Failed    int
	Shed      int
	// Expired counts queued prefills shed un-run past their TTFT deadline;
	// AdmissionSheds the subset of Shed refused by the token-rate gate.
	Expired        int
	AdmissionSheds int
	// Partial counts failed requests that had delivered new tokens;
	// PartialTokens the tokens they delivered — work a plain failure count
	// would hide.
	Partial       int
	PartialTokens int
	// Ingested counts decode-role arrivals with prefill done elsewhere.
	Ingested int
	// Preemptions counts KV evictions; KernelRetries transient kernel
	// re-submissions.
	Preemptions   int
	KernelRetries int
	// TokensEmitted counts output tokens produced on this device;
	// EmittedByRequests sums EmittedHere over terminal requests. Token
	// conservation: the two must be equal after quiescence.
	TokensEmitted     int
	EmittedByRequests int
	// TTFT/TPOT/QueueDelay summarize locally-terminal requests, seconds.
	TTFT       metrics.Percentiles
	TPOT       metrics.Percentiles
	QueueDelay metrics.Percentiles
	// KV snapshots the cache allocator; MemoryPeak the device high-water
	// mark (weights + cache).
	KV         gpu.KVStats
	MemoryPeak int64
	// Truncated counts sequences whose output budget degraded mode cut;
	// TruncatedTokens the budget tokens cut (explicitly accounted so token
	// conservation closes: TokensOut + Truncated == the original budget).
	Truncated       int
	TruncatedTokens int
	// DegradedEvents counts KV-watermark crossings into degraded mode.
	DegradedEvents int
	// TPOTMisses counts completions over the TPOT budget; SLOAttained
	// completions inside every armed budget.
	TPOTMisses  int
	SLOAttained int
	// AdmitLimit is the token-rate gate's final adaptive limit (0 when the
	// gate is unarmed).
	AdmitLimit float64
	// ByClass carries per-class conservation counters over local outcomes
	// only: a hand-off counts in HandedOff and in no class, so
	// Σ_c ByClass[c].Submitted == Requests but the class outcomes omit it.
	ByClass metrics.ByClass
}

// LLMServer serves one autoregressive model on one device with continuous
// batching. Construction allocates the weights; from then on the engine, a
// loop run by event callbacks, launches one prefill or decode kernel at a
// time and carries on when it completes, idling until the next Submit or
// Ingest when nothing is runnable.
type LLMServer struct {
	env *sim.Env
	cfg LLMConfig
	dev *gpu.Device
	kv  *gpu.KVCache

	batch   *llm.Batcher
	pending fifo.Ring[*llm.Request] // decode-role ingests waiting for cache space

	// idle is set while no wake is queued and no kernel is in flight. wake
	// and done are loop and kernelDone, bound once.
	idle       bool
	wake, done func()
	// The step in flight: its kernel (nil when none) and the shape to
	// relaunch, its start, its prefill request (nil for a decode step), and
	// the decode step's membership, cleared when the step ends.
	k       *gpu.Kernel
	kernel  gpu.Kernel
	kstart  sim.Time
	prefill *llm.Request
	running []*llm.Request

	reqCount int

	limiter  *overload.Limiter
	kvBudget int64 // device memory left for KV after weights
	degraded bool

	handedOff, partial, partialTokens    int
	ingested, preemptions, kernelRetries int
	tokensEmitted, emittedByRequests     int
	truncated, degradedEvents            int
	// byClass holds the per-class tallies; Stats sums Requests, Completed,
	// Failed, Shed, Expired and TPOTMisses from them.
	byClass metrics.ByClass
	// Per-class tallies behind class-labelled counters; Stats sums them.
	admissionSheds, truncatedTokens, sloAttained [overload.NumClasses]int

	// TTFT/TPOT/queue-delay histograms recorded at source; Stats derives its
	// percentiles from these in bounded memory (≤ ~19% relative error).
	ttftHist *obs.Hist
	tpotHist *obs.Hist
	qdHist   *obs.Hist

	rec    *obs.Recorder
	obsDev int

	// Counters with no tally; the rest are views over the tallies above.
	kvFailC   *obs.Series
	stepsC    *obs.Series
	prefillsC *obs.Series
}

// NewLLMServer builds a replica and allocates its weights on the device.
func NewLLMServer(env *sim.Env, cfg LLMConfig) (*LLMServer, error) {
	if cfg.Model == "" {
		cfg.Model = model.LLMTiny
	}
	if !model.IsLLM(cfg.Model) {
		return nil, fmt.Errorf("serving: %q is not an autoregressive model", cfg.Model)
	}
	if cfg.Spec.Name == "" {
		cfg.Spec = gpu.GTX1080Ti
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxSeqs <= 0 {
		cfg.MaxSeqs = 8
	}
	if cfg.KVWatermark > 0 && cfg.DegradedTail <= 0 {
		cfg.DegradedTail = 8
	}
	weights, err := model.LLMWeightsBytes(cfg.Model)
	if err != nil {
		return nil, err
	}
	kvPerTok, err := model.LLMKVBytesPerToken(cfg.Model)
	if err != nil {
		return nil, err
	}
	dev := gpu.New(env, cfg.Spec, rand.New(rand.NewSource(cfg.Seed+811)))
	dev.InjectFaults(cfg.Faults)
	if cfg.Obs != nil {
		dev.Observe(cfg.Obs, cfg.Device)
	}
	if err := dev.Alloc(weights); err != nil {
		return nil, fmt.Errorf("serving: %s weights do not fit on %s: %w: %d in use, %d requested, %d total",
			cfg.Model, cfg.Spec.Name, err, dev.MemoryInUse(), weights, cfg.Spec.MemoryBytes)
	}
	s := &LLMServer{
		env:      env,
		cfg:      cfg,
		dev:      dev,
		kv:       gpu.NewKVCache(dev, kvBlockTokens, kvPerTok),
		batch:    llm.NewBatcher(cfg.MaxSeqs),
		kvBudget: cfg.Spec.MemoryBytes - weights,
		rec:      cfg.Obs,
		obsDev:   cfg.Device,
	}
	if cfg.Admission != nil {
		s.limiter = overload.NewLimiter(*cfg.Admission, overload.Tokens)
	}
	reg := cfg.Obs.Registry()
	devLabel := strconv.Itoa(cfg.Device)
	s.ttftHist = obs.EnsureHist(reg.Histogram("olympian_llm_ttft_seconds", "Time to first token over completions.", "device", devLabel))
	s.tpotHist = obs.EnsureHist(reg.Histogram("olympian_llm_tpot_seconds", "Mean inter-token gap over completions.", "device", devLabel))
	s.qdHist = obs.EnsureHist(reg.Histogram("olympian_llm_queue_delay_seconds", "Arrival-to-first-prefill queue delay.", "device", devLabel))
	for c := range s.byClass {
		reg.CounterView("olympian_llm_requests_total", "LLM requests arrived (submit or ingest).", &s.byClass[c].Submitted, "device", devLabel)
		reg.CounterView("olympian_llm_completed_total", "LLM requests completed.", &s.byClass[c].Completed, "device", devLabel)
		reg.CounterView("olympian_llm_failed_total", "LLM requests failed.", &s.byClass[c].Failed, "device", devLabel)
	}
	reg.CounterView("olympian_llm_tokens_total", "Output tokens emitted.", &s.tokensEmitted, "device", devLabel)
	reg.CounterView("olympian_llm_preemptions_total", "Sequences evicted from KV cache.", &s.preemptions, "device", devLabel)
	reg.CounterView("olympian_llm_handoffs_total", "Prefilled sequences shipped to decode replicas.", &s.handedOff, "device", devLabel)
	reg.CounterView("olympian_llm_ingests_total", "Sequences ingested with prefill done elsewhere.", &s.ingested, "device", devLabel)
	reg.CounterView("olympian_llm_partials_total", "Failures that had delivered tokens.", &s.partial, "device", devLabel)
	s.kvFailC = reg.Counter("olympian_llm_kv_exhausted_total", "Sequences failed on cache exhaustion.", "device", devLabel)
	s.stepsC = reg.Counter("olympian_llm_decode_steps_total", "Fused decode steps executed.", "device", devLabel)
	s.prefillsC = reg.Counter("olympian_llm_prefills_total", "Prefill passes executed (including recomputes).", "device", devLabel)
	reg.CounterView("olympian_llm_degraded_events_total", "KV-watermark crossings into degraded mode.", &s.degradedEvents, "device", devLabel)
	for cls := overload.Class(0); cls < overload.NumClasses; cls++ {
		cl := cls.String()
		reg.CounterView("olympian_llm_admission_shed_total", "Requests refused by the token-rate admission gate.", &s.admissionSheds[cls], "device", devLabel, "class", cl)
		reg.CounterView("olympian_llm_ttft_expired_total", "Queued prefills shed un-run past their TTFT deadline.", &s.byClass[cls].Expired, "device", devLabel, "class", cl)
		reg.CounterView("olympian_llm_truncated_tokens_total", "Output-budget tokens cut by degraded mode.", &s.truncatedTokens[cls], "device", devLabel, "class", cl)
		reg.CounterView("olympian_llm_slo_attained_total", "Completions inside every armed TTFT/TPOT budget.", &s.sloAttained[cls], "device", devLabel, "class", cl)
		reg.CounterView("olympian_llm_tpot_miss_total", "Completions over the TPOT budget.", &s.byClass[cls].DeadlineMisses, "device", devLabel, "class", cl)
	}

	s.wake, s.done = s.loop, s.kernelDone
	env.Schedule(0, s.wake)
	return s, nil
}

// Device exposes the replica's GPU.
func (s *LLMServer) Device() *gpu.Device { return s.dev }

// Submit enqueues a fresh request (Colocated or PrefillRole) in r, a record
// the caller holds. have carries tokens already delivered by a previous
// replica (failover recompute). r is initialized only once every synchronous
// rejection has passed, and the server holds it until its Done event fires;
// the caller may reuse it after that. Callable from event or process
// context.
func (s *LLMServer) Submit(r *llm.Request, modelName string, class overload.Class, prompt, output, have int) error {
	if modelName != s.cfg.Model {
		return fmt.Errorf("serving: llm replica serves %q, not %q", s.cfg.Model, modelName)
	}
	if s.cfg.Role == llm.DecodeRole {
		return fmt.Errorf("serving: decode-role replica only accepts Ingest")
	}
	if !class.Valid() {
		return fmt.Errorf("serving: invalid class %d", class)
	}
	s.byClass[class].Submitted++
	if s.dev.Dead() {
		s.byClass[class].Failed++
		return ErrDrained
	}
	cost := 0
	if s.limiter != nil {
		cost = prompt + output
		if !s.limiter.HasCapacity(class, cost) {
			s.limiter.NoteShed()
			s.admissionSheds[class]++
			s.byClass[class].Shed++
			s.rec.Instant(obs.LayerServing, "llm_admit_shed", s.reqCount, int(class), s.obsDev, int64(cost))
			return ErrShed
		}
	}
	if s.cfg.MaxQueue > 0 && s.batch.QueueLen() >= s.cfg.MaxQueue {
		s.byClass[class].Shed++
		s.rec.Instant(obs.LayerServing, "llm_shed", s.reqCount, int(class), s.obsDev, int64(s.batch.QueueLen()))
		return ErrQueueFull
	}
	llm.InitRequest(r, s.env, s.reqCount, modelName, class, prompt, output, have)
	s.reqCount++
	if s.limiter != nil {
		s.limiter.Acquire(cost)
		r.AdmitCost = int32(cost)
	}
	s.batch.Enqueue(r)
	s.signal()
	return nil
}

// Ingest admits a sequence whose prefill ran on another replica (DecodeRole
// only) into r, a record the caller holds on Submit's terms: its KV arrives
// over the transfer link, is re-allocated here, and the sequence joins the
// batch at the next token boundary. Stamps carry the request's history in
// global virtual time.
func (s *LLMServer) Ingest(r *llm.Request, class overload.Class, prompt, output, have int, arriveAt, firstTokenAt, lastTokenAt sim.Time) error {
	if s.cfg.Role != llm.DecodeRole {
		return fmt.Errorf("serving: Ingest requires a decode-role replica")
	}
	if !class.Valid() {
		return fmt.Errorf("serving: invalid class %d", class)
	}
	s.byClass[class].Submitted++
	if s.dev.Dead() {
		s.byClass[class].Failed++
		return ErrDrained
	}
	llm.InitRequest(r, s.env, s.reqCount, s.cfg.Model, class, prompt, output, have)
	s.reqCount++
	r.ArriveAt = arriveAt
	r.FirstTokenAt = firstTokenAt
	r.LastTokenAt = lastTokenAt
	s.ingested++
	s.rec.Instant(obs.LayerServing, "llm_ingest", r.ID, int(class), s.obsDev, int64(r.KVTokens()))
	s.pending.PushBack(r)
	s.signal()
	return nil
}

// OnCrash unwinds every live sequence after a device crash: queued, ready,
// pending-ingest, and running work fails with ErrDrained (tokens already
// delivered stay counted) and all KV is released. Returns how many requests
// were drained. Wire it from the device's crash observer; in-flight kernels
// additionally fail through the kernel-error path, which the engine treats
// idempotently.
func (s *LLMServer) OnCrash() int {
	now := s.env.Now()
	queued, ready, running := s.batch.TakeAll()
	drained := 0
	fail := func(r *llm.Request) {
		if r.Finished() {
			return
		}
		s.kv.Release(r.ID)
		s.bookFail(r, ErrDrained, now)
		drained++
	}
	for _, rs := range [...][]*llm.Request{queued, ready, running} {
		for _, r := range rs {
			fail(r)
		}
	}
	for s.pending.Len() > 0 {
		fail(s.pending.PopFront())
	}
	return drained
}

// runnable reports whether the engine has anything to do.
func (s *LLMServer) runnable() bool { return s.batch.HasWork() || s.pending.Len() > 0 }

// signal wakes the engine if it idles; a busy one looks for work again
// before it idles.
func (s *LLMServer) signal() {
	if s.idle {
		s.idle = false
		s.env.Schedule(0, s.wake)
	}
}

// loop is the engine: admit ingests, re-form the batch at the token
// boundary, then launch one prefill pass or one fused decode step. It
// returns once a kernel is in flight, for kernelDone to carry on, or when
// nothing is runnable, idling the engine.
func (s *LLMServer) loop() {
	for !s.dev.Dead() && s.runnable() {
		s.admitIngests()
		// Ready sequences join at the token boundary, up to MaxSeqs.
		for s.batch.PromoteOne() != nil {
		}
		var started bool
		if r := s.batch.NextPrefill(); r != nil {
			started = !s.expireTTFT(r, s.env.Now()) && s.startPrefill(r)
		} else if len(s.batch.Running()) > 0 {
			started = s.startDecodeStep()
		} else {
			// Nothing schedulable this instant (ingests blocked on memory
			// with the batch otherwise empty were failed above); wait for
			// the next signal rather than spinning.
			break
		}
		if started {
			return
		}
	}
	s.idle = true
}

// admitIngests seats pending ingests while their KV fits. A head that cannot
// fit waits for running sequences to finish — unless the batch is idle, in
// which case the device is as empty as it will ever be and the sequence can
// never fit.
func (s *LLMServer) admitIngests() {
	for s.pending.Len() > 0 {
		r := s.pending.At(0)
		if r.Finished() { // crash-unwound while waiting
			s.pending.PopFront()
			continue
		}
		if err := s.kv.Grow(r.ID, r.KVTokens()); err != nil {
			if s.batch.Idle() {
				s.kvFailC.Inc()
				s.rec.Instant(obs.LayerServing, "llm_kv_exhausted", r.ID, int(r.Class), s.obsDev, int64(r.KVTokens()))
				s.pending.PopFront()
				s.bookFail(r, ErrKVExhausted, s.env.Now())
				continue
			}
			return
		}
		s.pending.PopFront()
		s.batch.Admit(r)
	}
}

// congest feeds a KV-pressure or SLO-failure signal to the token-rate
// admission gate; a no-op when the gate is unarmed.
func (s *LLMServer) congest(now sim.Time) {
	if s.limiter != nil {
		s.limiter.OnCongestion(time.Duration(now))
	}
}

// releaseAdmission returns an admitted request's charged tokens to the gate,
// exactly once, and reports the cost (0 when the gate is unarmed or the
// request was never charged, e.g. a decode-role ingest).
func (s *LLMServer) releaseAdmission(r *llm.Request) int {
	cost := int(r.AdmitCost)
	if cost == 0 {
		return 0
	}
	r.AdmitCost = 0
	s.limiter.Release(cost)
	return cost
}

// expireTTFT sheds a popped prefill whose TTFT deadline already passed:
// running it would burn prefill compute on an SLO the request cannot meet.
// Recomputes and carried failovers (TokensOut > 0) are exempt — their first
// token was already delivered. Expiry is a server-side SLO failure, so it
// feeds the congestion signal (unlike the gate's own sheds).
func (s *LLMServer) expireTTFT(r *llm.Request, now sim.Time) bool {
	if s.cfg.TTFTDeadline <= 0 || r.TokensOut > 0 || r.Finished() {
		return false
	}
	wait := time.Duration(now - r.ArriveAt)
	if wait <= s.cfg.TTFTDeadline {
		return false
	}
	s.byClass[r.Class].Expired++
	s.rec.Instant(obs.LayerServing, "llm_expired", r.ID, int(r.Class), s.obsDev, int64(wait))
	s.congest(now)
	s.releaseAdmission(r)
	r.Abort(ErrExpired, now)
	return true
}

// checkDegraded samples KV utilization against the watermark at the token
// boundary. At or above it the server is in degraded mode: the crossing is
// a congestion event for the admission gate, and every running batch-class
// sequence's output budget is truncated to DegradedTail further tokens so
// the cache drains within a bounded number of steps — interactive sequences
// keep their full budgets. Cut tokens are explicitly accounted.
func (s *LLMServer) checkDegraded(now sim.Time) {
	if s.cfg.KVWatermark <= 0 || s.kvBudget <= 0 {
		return
	}
	util := float64(s.kv.BytesInUse()) / float64(s.kvBudget)
	if util < s.cfg.KVWatermark {
		s.degraded = false
		return
	}
	if !s.degraded {
		s.degraded = true
		s.degradedEvents++
		s.rec.Instant(obs.LayerServing, "llm_degraded", obs.NoReq, obs.NoClass, s.obsDev, int64(util*1000))
	}
	s.congest(now)
	for _, r := range s.batch.Running() {
		if r.Class != overload.Batch {
			continue
		}
		if cut := r.Truncate(r.TokensOut + s.cfg.DegradedTail); cut > 0 {
			s.truncated++
			s.truncatedTokens[r.Class] += cut
			s.rec.Instant(obs.LayerServing, "llm_truncate", r.ID, int(r.Class), s.obsDev, int64(cut))
		}
	}
}

// startPrefill begins one prefill pass (first or recompute) for r and
// reports whether its kernel is in flight.
func (s *LLMServer) startPrefill(r *llm.Request) bool {
	now := s.env.Now()
	if r.PrefillStartAt == 0 {
		r.PrefillStartAt = now
		s.qdHist.Observe(r.QueueDelay())
	}
	tokens := r.KVTokens()
	if err := s.kv.Grow(r.ID, tokens); err != nil {
		if len(s.batch.Running()) > 0 {
			// Memory frees as running sequences finish; keep our place.
			s.batch.EnqueueFront(r)
			return s.startDecodeStep()
		}
		s.kvFailC.Inc()
		s.rec.Instant(obs.LayerServing, "llm_kv_exhausted", r.ID, int(r.Class), s.obsDev, int64(tokens))
		s.congest(now)
		s.bookFail(r, ErrKVExhausted, now)
		return false
	}
	dur, err := model.LLMPrefillTime(s.cfg.Model, tokens)
	if err != nil {
		s.kv.Release(r.ID)
		s.bookFail(r, err, now)
		return false
	}
	s.prefill, s.kstart = r, now
	s.kernel = gpu.Kernel{Owner: r.ID, Duration: dur, Occupancy: 1}
	return s.start()
}

// endPrefill ends r's prefill pass once its kernel completed with err: nil,
// or the crash that failed it.
func (s *LLMServer) endPrefill(r *llm.Request, err error) {
	if r.Finished() {
		return
	}
	now := s.env.Now()
	if err != nil {
		s.kv.Release(r.ID)
		s.bookFail(r, ErrDrained, now)
		return
	}
	s.prefillsC.Inc()
	s.rec.Span(obs.LayerServing, "llm_prefill", r.ID, int(r.Class), s.obsDev, s.kstart, now, int64(r.KVTokens()))
	if r.TokensOut == 0 {
		// The prefill pass samples the first output token; recomputes
		// (TokensOut > 0) rebuild KV without re-emitting anything.
		r.TokensOut = 1
		r.FirstTokenAt = now
		r.LastTokenAt = now
		s.tokensEmitted++
	}
	switch {
	case r.TokensOut >= r.OutputTokens:
		s.kv.Release(r.ID)
		s.bookComplete(r, now)
	case s.cfg.Role == llm.PrefillRole:
		// KV ships to a decode replica; the cluster layer charges the link.
		s.kv.Release(r.ID)
		r.HandedOff = true
		s.handedOff++
		s.emittedByRequests += r.EmittedHere()
		s.rec.Instant(obs.LayerServing, "llm_handoff", r.ID, int(r.Class), s.obsDev, int64(r.KVTokens()))
		cost := s.releaseAdmission(r)
		if s.limiter != nil && (s.cfg.TTFTDeadline <= 0 || r.TTFT() <= s.cfg.TTFTDeadline) {
			s.limiter.OnSuccess(cost)
		}
		r.Complete(now)
	default:
		s.batch.Admit(r)
	}
}

// startDecodeStep grows every running sequence by one token (preempting on
// exhaustion) and launches one fused decode kernel over the batch, reporting
// whether it is in flight. endDecodeStep retires the sequences that met
// their budget: the token boundary where membership changes.
func (s *LLMServer) startDecodeStep() bool {
	now := s.env.Now()
	// Grow only ensures a size, so after a preemption the pass restarts and
	// the sequences it already grew cost nothing.
growth:
	for {
		for _, r := range s.batch.Running() {
			if err := s.kv.Grow(r.ID, r.KVTokens()+1); err != nil {
				v := s.batch.Victim()
				if v == nil {
					// r runs alone and still cannot grow: terminal.
					s.batch.Leave(r)
					s.kv.Release(r.ID)
					s.kvFailC.Inc()
					s.rec.Instant(obs.LayerServing, "llm_kv_exhausted", r.ID, int(r.Class), s.obsDev, int64(r.KVTokens()))
					s.congest(now)
					s.bookFail(r, ErrKVExhausted, now)
					continue growth
				}
				s.kv.Release(v.ID)
				v.Preemptions++
				s.preemptions++
				s.rec.Instant(obs.LayerServing, "llm_preempt", v.ID, int(v.Class), s.obsDev, int64(v.KVTokens()))
				s.congest(now)
				s.batch.EnqueueFront(v)
				continue growth
			}
		}
		break
	}
	// Copy the membership: a drain may change the batch while the step's
	// kernel runs. endDecodeStep clears the copy, so no pointer to a
	// finished request, whose record its caller may reuse, survives until
	// the next step.
	s.running = append(s.running[:0], s.batch.Running()...)
	if len(s.running) == 0 {
		return false
	}
	// Token-boundary degradation check: membership for this step is final
	// and KV is at its post-growth peak.
	s.checkDegraded(now)
	dur, err := model.LLMDecodeStepTime(s.cfg.Model, len(s.running), s.batch.KVTokens())
	if err != nil {
		clear(s.running)
		return false
	}
	s.kstart = now
	s.kernel = gpu.Kernel{Owner: -1, Duration: dur, Occupancy: 1}
	return s.start()
}

// endDecodeStep ends the decode step once its kernel completed with err:
// nil, or the crash that failed it.
func (s *LLMServer) endDecodeStep(err error) {
	now := s.env.Now()
	if err == nil {
		s.stepsC.Inc()
		s.rec.Span(obs.LayerServing, "llm_decode_step", obs.NoReq, obs.NoClass, s.obsDev, s.kstart, now, int64(len(s.running)))
	}
	for _, r := range s.running {
		switch {
		case r.Finished():
		case err != nil:
			s.batch.Leave(r)
			s.kv.Release(r.ID)
			s.bookFail(r, ErrDrained, now)
		default:
			r.TokensOut++
			r.LastTokenAt = now
			s.tokensEmitted++
			if r.TokensOut >= r.OutputTokens {
				s.batch.Leave(r)
				s.kv.Release(r.ID)
				s.bookComplete(r, now)
			}
		}
	}
	clear(s.running)
}

// start submits the step's kernel, which the step's start half shaped, and
// reports whether it is in flight. On a dead device it fails fast, with
// Done already fired, so the step ends here rather than in a callback.
func (s *LLMServer) start() bool {
	s.k = s.dev.Start(s.kernel)
	if s.k.Err != nil {
		return s.reap()
	}
	s.k.Done.Subscribe(s.done)
	return true
}

// reap collects the step's kernel once it has completed. A transient fault
// relaunches it, and reap reports whether the relaunch is in flight; any
// other outcome, success or a crash, ends the step.
func (s *LLMServer) reap() bool {
	err := s.dev.Reap(s.k)
	s.k = nil
	if err != nil && !errors.Is(err, faults.ErrDeviceCrashed) {
		s.kernelRetries++ // transient fault: re-run the kernel, no tokens emitted
		return s.start()
	}
	if r := s.prefill; r != nil {
		s.prefill = nil
		s.endPrefill(r, err)
	} else {
		s.endDecodeStep(err)
	}
	return false
}

// kernelDone is the step kernel's completion callback: unless reap
// relaunched the kernel, the engine carries on.
func (s *LLMServer) kernelDone() {
	if !s.reap() {
		s.loop()
	}
}

// bookComplete retires a successful request, judging it against the armed
// SLO budgets: a late first token or an over-budget mean inter-token gap
// forfeits SLO attainment (and the admission gate's additive increase).
func (s *LLMServer) bookComplete(r *llm.Request, now sim.Time) {
	s.byClass[r.Class].Completed++
	s.emittedByRequests += r.EmittedHere()
	if ttft := r.TTFT(); ttft > 0 {
		s.ttftHist.Observe(ttft)
	}
	if tpot := r.TPOT(); tpot > 0 {
		s.tpotHist.Observe(tpot)
	}
	ok := s.cfg.TTFTDeadline <= 0 || r.TTFT() <= s.cfg.TTFTDeadline
	if s.cfg.TPOTBudget > 0 && r.TPOT() > s.cfg.TPOTBudget {
		ok = false
		s.byClass[r.Class].DeadlineMisses++
	}
	cost := s.releaseAdmission(r)
	if ok {
		s.sloAttained[r.Class]++
		if s.limiter != nil {
			s.limiter.OnSuccess(cost)
		}
	}
	r.Complete(now)
}

// bookFail retires a failed request, keeping its delivered tokens visible as
// partial work rather than folding them into a plain failure.
func (s *LLMServer) bookFail(r *llm.Request, err error, now sim.Time) {
	s.byClass[r.Class].Failed++
	s.emittedByRequests += r.EmittedHere()
	if r.EmittedHere() > 0 {
		s.partial++
		s.partialTokens += r.EmittedHere()
	}
	s.releaseAdmission(r)
	r.Abort(err, now)
}

// KVUtilization is the cache's current fraction of the post-weights memory
// budget — the pressure signal least-KV routing steers on. 0 when the
// device has no headroom to measure against.
func (s *LLMServer) KVUtilization() float64 {
	if s.kvBudget <= 0 {
		return 0
	}
	return float64(s.kv.BytesInUse()) / float64(s.kvBudget)
}

// Stats snapshots the replica's accounting.
func (s *LLMServer) Stats() LLMStats {
	limit := 0.0
	if s.limiter != nil {
		limit = s.limiter.Limit()
	}
	st := LLMStats{
		Model:             s.cfg.Model,
		HandedOff:         s.handedOff,
		AdmissionSheds:    classSum(s.admissionSheds),
		Truncated:         s.truncated,
		TruncatedTokens:   classSum(s.truncatedTokens),
		DegradedEvents:    s.degradedEvents,
		SLOAttained:       classSum(s.sloAttained),
		AdmitLimit:        limit,
		Partial:           s.partial,
		PartialTokens:     s.partialTokens,
		Ingested:          s.ingested,
		Preemptions:       s.preemptions,
		KernelRetries:     s.kernelRetries,
		TokensEmitted:     s.tokensEmitted,
		EmittedByRequests: s.emittedByRequests,
		TTFT:              HistPercentiles(s.ttftHist),
		TPOT:              HistPercentiles(s.tpotHist),
		QueueDelay:        HistPercentiles(s.qdHist),
		KV:                s.kv.Stats(),
		MemoryPeak:        s.dev.Stats().MemoryPeak,
		ByClass:           s.byClass,
	}
	for _, c := range s.byClass {
		st.Requests += c.Submitted
		st.Completed += c.Completed
		st.Failed += c.Failed
		st.Shed += c.Shed
		st.Expired += c.Expired
		st.TPOTMisses += c.DeadlineMisses
	}
	return st
}

// classSum totals a per-class tally.
func classSum(a [overload.NumClasses]int) int {
	n := 0
	for _, v := range a {
		n += v
	}
	return n
}

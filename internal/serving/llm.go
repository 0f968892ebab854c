// LLM serving front-end: continuous batching over an autoregressive model.
//
// The CNN path batches requests, flushes the batch through the executor, and
// starts over. Autoregressive generation cannot work that way: requests
// finish at different token counts, so a fixed batch would hold its slots
// until the longest member drains. The LLMServer instead re-forms the batch
// at every token boundary — between fused decode steps — so sequences join
// the moment their prefill lands and leave the moment their budget is met,
// bounded by min(MaxSeqs, MaxBatchTokens) and, optionally, by a
// profiler-predicted step-time budget (MaxStepTime), the token-level
// analogue of the Olympian scheduling quantum.
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
	"olympian/internal/gpu"
	"olympian/internal/llm"
	"olympian/internal/metrics"
	"olympian/internal/model"
	"olympian/internal/obs"
	"olympian/internal/overload"
	"olympian/internal/profiler"
	"olympian/internal/sim"
)

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
	// MaxSeqs bounds the decode batch width (default 8); MaxBatchTokens
	// additionally caps decode tokens per step (each running sequence
	// contributes one), 0 = no extra bound.
	MaxSeqs        int
	MaxBatchTokens int
	// MaxQueue bounds the prefill queue; beyond it submissions are shed with
	// ErrQueueFull (0 = unbounded).
	MaxQueue int
	// BlockTokens is the KV-cache block granularity (default 16).
	BlockTokens int
	// MaxStepTime, when positive, stops admitting ready sequences once the
	// profiler predicts the next decode step would exceed it.
	MaxStepTime time.Duration
	// TTFTDeadline, when positive, sheds queued prefills whose first token
	// was not produced by arrival+deadline: they expire un-run (ErrExpired)
	// instead of burning prefill compute on an already-blown SLO. Recomputes
	// and ingests (first token already delivered) are exempt.
	TTFTDeadline time.Duration
	// TPOTBudget, when positive, counts completions whose mean inter-token
	// gap exceeds it as decode SLO misses (per-class DeadlineMisses).
	TPOTBudget time.Duration
	// Admission, when non-nil, arms a token-rate AIMD gate on Submit: each
	// request is charged its predicted token cost (prompt + expected
	// output) and sheds with ErrShed when the class's fraction of the
	// adaptive token limit is full. KV pressure and TTFT expiries feed the
	// limiter's congestion signal; its own sheds never do.
	Admission *overload.AIMDConfig
	// ExpectedOutput is the predicted output length used for the admission
	// cost; 0 charges the request's own output budget (oracle prediction).
	ExpectedOutput int
	// KVWatermark in (0,1], when set, arms degraded mode: KV utilization at
	// or above this fraction of the post-weights memory budget signals
	// congestion and truncates batch-class output budgets to DegradedTail
	// further tokens, explicitly accounted in Truncated/TruncatedTokens.
	KVWatermark float64
	// DegradedTail is how many further tokens a batch-class sequence may
	// generate once degraded mode engages (default 8 when KVWatermark set).
	DegradedTail int
	// Seed derives the server's private random streams under IsolateRand.
	Seed int64
	// Faults optionally injects kernel faults, stalls, and crashes.
	Faults *faults.Injector
	// Obs optionally records lifecycle events; Device labels them.
	Obs    *obs.Recorder
	Device int
	// IsolateRand gives the device a private random stream so multi-replica
	// topologies stay deterministic regardless of construction order.
	IsolateRand bool
	// Profile supplies pre-fitted cost curves; measured at construction when
	// nil.
	Profile *profiler.LLMProfile
}

// Validate rejects explicit nonsense, mirroring Config.Validate on the CNN
// path: zero values mean "use the default / disable the knob" throughout
// this package, so a negative bound, a watermark outside [0,1], or an
// invalid admission config is a caller bug worth failing loudly on.
// NewLLMServer calls it; callers building configs programmatically can too.
func (c LLMConfig) Validate() error {
	if c.MaxSeqs < 0 || c.MaxBatchTokens < 0 || c.MaxQueue < 0 {
		return fmt.Errorf("serving: negative llm batch/queue bound (maxSeqs=%d maxBatchTokens=%d maxQueue=%d)",
			c.MaxSeqs, c.MaxBatchTokens, c.MaxQueue)
	}
	if c.BlockTokens < 0 {
		return fmt.Errorf("serving: negative llm kv block size %d", c.BlockTokens)
	}
	if c.MaxStepTime < 0 {
		return fmt.Errorf("serving: negative llm step-time budget %v", c.MaxStepTime)
	}
	if c.TTFTDeadline < 0 || c.TPOTBudget < 0 {
		return fmt.Errorf("serving: negative llm slo budget (ttft=%v tpot=%v)", c.TTFTDeadline, c.TPOTBudget)
	}
	if c.ExpectedOutput < 0 {
		return fmt.Errorf("serving: negative llm expected output %d", c.ExpectedOutput)
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
	// ByClass carries per-class conservation counters.
	ByClass metrics.ByClass
}

// LLMServer serves one autoregressive model on one device with continuous
// batching. Construction allocates the weights; the engine daemon drives
// prefill and decode kernels from then on.
type LLMServer struct {
	env  *sim.Env
	cfg  LLMConfig
	dev  *gpu.Device
	kv   *gpu.KVCache
	prof *profiler.LLMProfile

	batch   *llm.Batcher
	cond    *sim.Cond
	pending []*llm.Request // decode-role ingests waiting for cache space

	// Decode-step scratch, reused across steps. Only the engine daemon
	// touches it, and it runs one step at a time.
	grown   map[*llm.Request]bool
	running []*llm.Request

	reqCount int

	limiter  *overload.Limiter
	kvBudget int64 // device memory left for KV after weights
	degraded bool

	submitted, completed, handedOff, failed int
	partial, partialTokens                  int
	ingested, preemptions, kernelRetries    int
	tokensEmitted, emittedByRequests        int
	truncated, degradedEvents               int
	// byClass holds the per-class tallies; Stats sums Shed, Expired and
	// TPOTMisses from them.
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
	if cfg.BlockTokens <= 0 {
		cfg.BlockTokens = 16
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
	dev := gpu.New(env, cfg.Spec)
	dev.InjectFaults(cfg.Faults)
	if cfg.IsolateRand {
		dev.SetRand(rand.New(rand.NewSource(cfg.Seed + 811)))
	}
	if cfg.Obs != nil {
		dev.Observe(cfg.Obs, cfg.Device)
	}
	if err := dev.Alloc(weights); err != nil {
		return nil, fmt.Errorf("serving: %s weights do not fit on %s: %w: %d in use, %d requested, %d total",
			cfg.Model, cfg.Spec.Name, err, dev.MemoryInUse(), weights, cfg.Spec.MemoryBytes)
	}
	prof := cfg.Profile
	if prof == nil {
		prof, err = profiler.ProfileLLM(cfg.Model, cfg.Spec, cfg.Seed)
		if err != nil {
			return nil, err
		}
	}
	s := &LLMServer{
		env:      env,
		cfg:      cfg,
		dev:      dev,
		kv:       gpu.NewKVCache(dev, cfg.BlockTokens, kvPerTok),
		prof:     prof,
		batch:    llm.NewBatcher(cfg.MaxSeqs, cfg.MaxBatchTokens),
		cond:     env.NewCond(fmt.Sprintf("llm-engine-%d", cfg.Device)),
		grown:    make(map[*llm.Request]bool),
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
	reg.CounterView("olympian_llm_requests_total", "LLM requests arrived (submit or ingest).", &s.submitted, "device", devLabel)
	reg.CounterView("olympian_llm_completed_total", "LLM requests completed.", &s.completed, "device", devLabel)
	reg.CounterView("olympian_llm_failed_total", "LLM requests failed.", &s.failed, "device", devLabel)
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

	proc := env.Go(fmt.Sprintf("llm-engine-%d", cfg.Device), s.drive)
	proc.SetDaemon(true)
	return s, nil
}

// Device exposes the replica's GPU.
func (s *LLMServer) Device() *gpu.Device { return s.dev }

// Submit enqueues a fresh request (Colocated or PrefillRole). have carries
// tokens already delivered by a previous replica (failover recompute).
// Callable from event or process context; completion is the request's Done
// event.
func (s *LLMServer) Submit(modelName string, class overload.Class, prompt, output, have int) (*llm.Request, error) {
	if modelName != s.cfg.Model {
		return nil, fmt.Errorf("serving: llm replica serves %q, not %q", s.cfg.Model, modelName)
	}
	if s.cfg.Role == llm.DecodeRole {
		return nil, fmt.Errorf("serving: decode-role replica only accepts Ingest")
	}
	if !class.Valid() {
		return nil, fmt.Errorf("serving: invalid class %d", class)
	}
	s.submitted++
	s.byClass[class].Submitted++
	if s.dev.Dead() {
		s.failed++
		s.byClass[class].Failed++
		return nil, ErrDrained
	}
	cost := 0
	if s.limiter != nil {
		cost = prompt + output
		if s.cfg.ExpectedOutput > 0 {
			cost = prompt + s.cfg.ExpectedOutput
		}
		if !s.limiter.HasCapacity(class, cost) {
			s.limiter.NoteShed()
			s.admissionSheds[class]++
			s.byClass[class].Shed++
			s.rec.Instant(obs.LayerServing, "llm_admit_shed", s.reqCount, int(class), s.obsDev, int64(cost))
			return nil, ErrShed
		}
	}
	if s.cfg.MaxQueue > 0 && s.batch.QueueLen() >= s.cfg.MaxQueue {
		s.byClass[class].Shed++
		s.rec.Instant(obs.LayerServing, "llm_shed", s.reqCount, int(class), s.obsDev, int64(s.batch.QueueLen()))
		return nil, ErrQueueFull
	}
	r := llm.NewRequest(s.env, s.reqCount, modelName, class, prompt, output, have)
	s.reqCount++
	if s.limiter != nil {
		s.limiter.Acquire(cost)
		r.AdmitCost = int32(cost)
	}
	s.batch.Enqueue(r)
	s.cond.Signal()
	return r, nil
}

// Ingest admits a sequence whose prefill ran on another replica (DecodeRole
// only): its KV arrives over the transfer link, is re-allocated here, and
// the sequence joins the batch at the next token boundary. Stamps carry the
// request's history in global virtual time.
func (s *LLMServer) Ingest(class overload.Class, prompt, output, have int, arriveAt, firstTokenAt, lastTokenAt sim.Time) (*llm.Request, error) {
	if s.cfg.Role != llm.DecodeRole {
		return nil, fmt.Errorf("serving: Ingest requires a decode-role replica")
	}
	if !class.Valid() {
		return nil, fmt.Errorf("serving: invalid class %d", class)
	}
	s.submitted++
	s.byClass[class].Submitted++
	if s.dev.Dead() {
		s.failed++
		s.byClass[class].Failed++
		return nil, ErrDrained
	}
	r := llm.NewRequest(s.env, s.reqCount, s.cfg.Model, class, prompt, output, have)
	s.reqCount++
	r.ArriveAt = arriveAt
	r.FirstTokenAt = firstTokenAt
	r.LastTokenAt = lastTokenAt
	s.ingested++
	s.rec.Instant(obs.LayerServing, "llm_ingest", r.ID, int(class), s.obsDev, int64(r.KVTokens()))
	s.pending = append(s.pending, r)
	s.cond.Signal()
	return r, nil
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
	fail := func(rs []*llm.Request) {
		for _, r := range rs {
			if r.Finished() {
				continue
			}
			s.kv.Release(r.ID)
			s.bookFail(r, ErrDrained, now)
			drained++
		}
	}
	fail(queued)
	fail(ready)
	fail(running)
	pend := s.pending
	s.pending = nil
	fail(pend)
	return drained
}

// runnable reports whether the engine has anything to do.
func (s *LLMServer) runnable() bool { return s.batch.HasWork() || len(s.pending) > 0 }

// drive is the engine daemon: admit ingests, re-form the batch at the token
// boundary, then run one prefill pass or one fused decode step.
func (s *LLMServer) drive(p *sim.Proc) {
	for {
		if s.dev.Dead() || !s.runnable() {
			s.cond.Wait(p)
			continue
		}
		s.admitIngests()
		s.promote()
		if r := s.batch.NextPrefill(); r != nil {
			if s.expireTTFT(r, p.Now()) {
				continue
			}
			s.runPrefill(p, r)
			continue
		}
		if len(s.batch.Running()) > 0 {
			s.runDecodeStep(p)
			continue
		}
		if s.runnable() {
			// Nothing schedulable this instant (ingests blocked on memory
			// with the batch otherwise empty were failed above); wait for
			// the next signal rather than spinning.
			s.cond.Wait(p)
		}
	}
}

// admitIngests seats pending ingests while their KV fits. A head that cannot
// fit waits for running sequences to finish — unless the batch is idle, in
// which case the device is as empty as it will ever be and the sequence can
// never fit.
func (s *LLMServer) admitIngests() {
	for len(s.pending) > 0 {
		r := s.pending[0]
		if r.Finished() { // crash-unwound while waiting
			s.pending = s.pending[1:]
			continue
		}
		if err := s.kv.Grow(r.ID, r.KVTokens()); err != nil {
			if s.batch.Idle() {
				s.kvFailC.Inc()
				s.rec.Instant(obs.LayerServing, "llm_kv_exhausted", r.ID, int(r.Class), s.obsDev, int64(r.KVTokens()))
				s.pending = s.pending[1:]
				s.bookFail(r, ErrKVExhausted, s.env.Now())
				continue
			}
			return
		}
		s.pending = s.pending[1:]
		s.batch.Admit(r)
	}
}

// promote joins ready sequences at the token boundary, bounded by slots and
// the optional profiler-predicted step-time budget.
func (s *LLMServer) promote() {
	for {
		r := s.batch.PeekReady()
		if r == nil {
			return
		}
		if s.cfg.MaxStepTime > 0 && len(s.batch.Running()) > 0 {
			pred := s.prof.DecodeStep(len(s.batch.Running())+1, s.batch.KVTokens()+r.KVTokens()+1)
			if pred > s.cfg.MaxStepTime {
				return
			}
		}
		s.batch.PromoteOne()
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

// runPrefill executes one prefill pass (first or recompute) for r.
func (s *LLMServer) runPrefill(p *sim.Proc, r *llm.Request) {
	if r.PrefillStartAt == 0 {
		r.PrefillStartAt = p.Now()
		s.qdHist.Observe(r.QueueDelay())
	}
	tokens := r.PromptTokens + r.TokensOut
	if err := s.kv.Grow(r.ID, tokens); err != nil {
		if len(s.batch.Running()) > 0 {
			// Memory frees as running sequences finish; keep our place.
			s.batch.EnqueueFront(r)
			s.runDecodeStep(p)
			return
		}
		s.kvFailC.Inc()
		s.rec.Instant(obs.LayerServing, "llm_kv_exhausted", r.ID, int(r.Class), s.obsDev, int64(tokens))
		s.congest(p.Now())
		s.bookFail(r, ErrKVExhausted, p.Now())
		return
	}
	dur, err := model.LLMPrefillTime(s.cfg.Model, tokens)
	if err != nil {
		s.kv.Release(r.ID)
		s.bookFail(r, err, p.Now())
		return
	}
	start := p.Now()
	for {
		err := s.dev.Exec(p, gpu.Kernel{Owner: r.ID, Stream: 0, Duration: dur, Occupancy: 1})
		if err == nil {
			break
		}
		if errors.Is(err, faults.ErrDeviceCrashed) {
			if !r.Finished() {
				s.kv.Release(r.ID)
				s.bookFail(r, ErrDrained, p.Now())
			}
			return
		}
		s.kernelRetries++
	}
	if r.Finished() {
		return
	}
	s.prefillsC.Inc()
	now := p.Now()
	s.rec.Span(obs.LayerServing, "llm_prefill", r.ID, int(r.Class), s.obsDev, start, now, int64(tokens))
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
		s.byClass[r.Class].Completed++
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

// runDecodeStep grows every running sequence by one token (preempting on
// exhaustion), executes one fused decode kernel, and retires sequences that
// met their budget — the token boundary where membership changes.
func (s *LLMServer) runDecodeStep(p *sim.Proc) {
	grown := s.grown
	clear(grown)
growth:
	for {
		for _, r := range s.batch.Running() {
			if grown[r] {
				continue
			}
			if err := s.kv.Grow(r.ID, r.KVTokens()+1); err != nil {
				v := s.batch.Victim()
				if v == nil {
					// r runs alone and still cannot grow: terminal.
					s.batch.Leave(r)
					s.kv.Release(r.ID)
					s.kvFailC.Inc()
					s.rec.Instant(obs.LayerServing, "llm_kv_exhausted", r.ID, int(r.Class), s.obsDev, int64(r.KVTokens()))
					s.congest(p.Now())
					s.bookFail(r, ErrKVExhausted, p.Now())
					continue growth
				}
				s.kv.Release(v.ID)
				v.Preemptions++
				s.preemptions++
				s.rec.Instant(obs.LayerServing, "llm_preempt", v.ID, int(v.Class), s.obsDev, int64(v.KVTokens()))
				s.congest(p.Now())
				s.batch.EnqueueFront(v)
				delete(grown, v)
				continue growth
			}
			grown[r] = true
		}
		break
	}
	// Copy the membership: the step's kernel blocks, and a drain may change
	// the batch meanwhile.
	running := append(s.running[:0], s.batch.Running()...)
	s.running = running
	if len(running) == 0 {
		return
	}
	// Token-boundary degradation check: membership for this step is final
	// and KV is at its post-growth peak.
	s.checkDegraded(p.Now())
	dur, err := model.LLMDecodeStepTime(s.cfg.Model, len(running), s.batch.KVTokens())
	if err != nil {
		return
	}
	start := p.Now()
	for {
		err := s.dev.Exec(p, gpu.Kernel{Owner: -1, Stream: 0, Duration: dur, Occupancy: 1})
		if err == nil {
			break
		}
		if errors.Is(err, faults.ErrDeviceCrashed) {
			for _, r := range running {
				if r.Finished() {
					continue
				}
				s.batch.Leave(r)
				s.kv.Release(r.ID)
				s.bookFail(r, ErrDrained, p.Now())
			}
			return
		}
		s.kernelRetries++ // transient fault: re-run the step, no tokens emitted
	}
	s.stepsC.Inc()
	now := p.Now()
	s.rec.Span(obs.LayerServing, "llm_decode_step", obs.NoReq, obs.NoClass, s.obsDev, start, now, int64(len(running)))
	for _, r := range running {
		if r.Finished() {
			continue
		}
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

// bookComplete retires a successful request, judging it against the armed
// SLO budgets: a late first token or an over-budget mean inter-token gap
// forfeits SLO attainment (and the admission gate's additive increase).
func (s *LLMServer) bookComplete(r *llm.Request, now sim.Time) {
	s.completed++
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
	s.failed++
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
		Requests:          s.submitted,
		Completed:         s.completed,
		HandedOff:         s.handedOff,
		Failed:            s.failed,
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

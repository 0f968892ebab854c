// Prefill/decode-disaggregated LLM fleet: prefill replicas compute prompt
// KV and first tokens, decode replicas stream the rest, and the KV cache
// travels between them over a modeled interconnect.
//
// The topology reuses the sharded substrate: shard 0 is the front-end
// (router, request bookkeeping, transfer links), shard i+1 hosts device i's
// serving.LLMServer. Devices 0..P-1 run llm.PrefillRole, P..P+D-1
// llm.DecodeRole. One Router covers both pools through role pseudo-models
// ("<model>#prefill", "<model>#decode"), so every placement choice lands in
// a single decision log and one DecisionHash fingerprints the whole fleet.
//
// A request's life: route to a prefill replica; the prefill pass emits the
// first token and hands the KV off; the front-end books the shipment on the
// prefill device's egress link (transfers serialize — a busy link delays the
// handoff), routes to a decode replica, and sends the ingest after the
// transfer completes; the decode replica recomputes nothing, joins the
// sequence to its continuous batch, and streams the remaining tokens. A
// crash on either side drains with ErrDrained and the front-end re-dispatches
// to prefill with have = tokens already delivered, so the next replica
// recomputes their KV but never re-emits them — the cluster-level token
// conservation law Σ device TokensEmitted == Σ request TokensOut.
//
// LLMServer.Submit and Ingest never park, so no per-device agent process is
// needed: cross-shard messages call them directly and subscribe to the
// request's completion event. Prefill and decode attempts follow the shared
// fleet lifecycle (fleet.go) — each report returns under its (request,
// attempt id) pair and is folded by one attemptDone — and this file adds
// the KV handoff, retries, and token and per-class accounting.
package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"olympian/internal/faults"
	"olympian/internal/gpu"
	"olympian/internal/llm"
	"olympian/internal/metrics"
	"olympian/internal/model"
	"olympian/internal/obs"
	"olympian/internal/overload"
	"olympian/internal/profiler"
	"olympian/internal/serving"
	"olympian/internal/sim"
	"olympian/internal/telemetry"
)

// LLMConfig configures a prefill/decode-disaggregated fleet.
type LLMConfig struct {
	// Seed drives all randomness; per-device streams are derived from it.
	Seed int64
	// Model is the served LLM (default model.LLMTiny); every replica holds
	// its weights resident.
	Model string
	// PrefillReplicas and DecodeReplicas size the two pools (both ≥ 1; a
	// colocated deployment is a single serving.LLMServer, not a cluster).
	PrefillReplicas int
	DecodeReplicas  int
	// PrefillSpec and DecodeSpec pick each pool's platform; zero values take
	// the reference GTX 1080 Ti. A small DecodeSpec.MemoryBytes is how the
	// llm experiment provokes KV pressure.
	PrefillSpec gpu.Spec
	DecodeSpec  gpu.Spec
	// MaxSeqs / MaxBatchTokens / MaxStepTime bound each decode replica's
	// continuous batch (serving.LLMConfig semantics).
	MaxSeqs        int
	MaxBatchTokens int
	MaxStepTime    time.Duration
	// MaxQueue bounds each replica's prefill queue (0 = unbounded).
	MaxQueue int
	// BlockTokens is the KV-cache block granularity (default 16).
	BlockTokens int
	// TTFTDeadline and TPOTBudget arm per-request token SLOs on every
	// replica: queued prefills past the TTFT deadline are shed un-run, and
	// completions over the TPOT budget count as decode SLO misses.
	TTFTDeadline time.Duration
	TPOTBudget   time.Duration
	// Admission, when non-nil, arms each replica's token-rate AIMD
	// admission gate; ExpectedOutput is the predicted output length its
	// cost model charges (0 = the request's own budget).
	Admission      *overload.TokenAIMDConfig
	ExpectedOutput int
	// KVWatermark and DegradedTail arm degraded mode on every replica:
	// above the watermark batch-class output budgets are truncated
	// (serving.LLMConfig semantics).
	KVWatermark  float64
	DegradedTail int
	// MaxRetries caps per-request retries after capacity rejections (shed,
	// queue-full, KV exhaustion); 0 disables them. A retry re-dispatches
	// through the crash-failover path — delivered tokens carried, never
	// re-emitted — after a jittered exponential backoff, gated by the
	// front-end retry budget.
	MaxRetries int
	// RetryBudgetMax and RetryRefund parameterise the front-end retry token
	// pool (defaults 32 and 0.1 when MaxRetries > 0); RetryBackoff and
	// RetryJitter the backoff delay (defaults 200µs and 0.2).
	RetryBudgetMax float64
	RetryRefund    float64
	RetryBackoff   time.Duration
	RetryJitter    float64
	// MaxFailovers caps per-request re-dispatches after drains (default 2;
	// negative disables failover).
	MaxFailovers int
	// Route selects the routing policy (default LeastOutstanding).
	Route RoutePolicy
	// NetLatency is the front-end<->device hop and the shard lookahead
	// (default DefaultNetLatency).
	NetLatency time.Duration
	// LinkLatency and LinkBytesPerSec shape each prefill replica's egress
	// interconnect for KV handoffs (defaults in package llm).
	LinkLatency     time.Duration
	LinkBytesPerSec float64
	// Faults optionally injects per-device fault plans; index i applies to
	// device i in the prefill-then-decode order.
	Faults []*faults.Plan
	// H2DBandwidth and WarmupBase shape crash-recovery warm-up (defaults as
	// in Config).
	H2DBandwidth float64
	WarmupBase   time.Duration
	// Workers sizes the sharded engine's worker pool (0 = NumCPU).
	Workers int
	// Slim drops per-request retention and streams the decision hash.
	Slim bool
	// Obs, when non-nil, records the fleet's request lifecycle.
	Obs *obs.Recorder
	// Telemetry, when non-nil alongside Obs, binds a virtual-clock sampler
	// per shard; LLMCluster.Timeline merges them and evaluates the SLO
	// burn-rate rules. See cluster.Config.Telemetry.
	Telemetry *telemetry.Config
}

func (cfg LLMConfig) withDefaults() LLMConfig {
	if cfg.Model == "" {
		cfg.Model = model.LLMTiny
	}
	if cfg.PrefillSpec.Name == "" {
		cfg.PrefillSpec = gpu.GTX1080Ti
	}
	if cfg.DecodeSpec.Name == "" {
		cfg.DecodeSpec = gpu.GTX1080Ti
	}
	cfg.MaxFailovers = failoverCap(cfg.MaxFailovers, 2)
	if cfg.MaxRetries > 0 {
		if cfg.RetryBudgetMax <= 0 {
			cfg.RetryBudgetMax = 32
		}
		if cfg.RetryRefund <= 0 {
			cfg.RetryRefund = 0.1
		}
		if cfg.RetryBackoff <= 0 {
			cfg.RetryBackoff = 200 * time.Microsecond
		}
		if cfg.RetryJitter <= 0 {
			cfg.RetryJitter = 0.2
		}
	}
	if cfg.Route == 0 {
		cfg.Route = LeastOutstanding
	}
	if cfg.NetLatency <= 0 {
		cfg.NetLatency = DefaultNetLatency
	}
	if cfg.H2DBandwidth <= 0 {
		cfg.H2DBandwidth = DefaultH2DBandwidth
	}
	if cfg.WarmupBase <= 0 {
		cfg.WarmupBase = DefaultWarmupBase
	}
	return cfg
}

// LLMRequest is one generation request as the fleet front-end sees it. ID,
// Class, Hops, ArriveAt, FinishAt, Err, Finished and Failed come from the
// shared request state.
type LLMRequest struct {
	request
	// PromptTokens and OutputTokens are the request's dimensions.
	PromptTokens int
	OutputTokens int
	// PrefillDev and DecodeDev are the last replicas of each role to hold
	// the request.
	PrefillDev int
	DecodeDev  int
	// Retries counts re-dispatches after capacity rejections (shed,
	// queue-full, KV exhaustion).
	Retries int
	// TokensOut is the total output tokens delivered across all attempts.
	TokensOut int
	// Truncated is how many output-budget tokens degraded mode cut across
	// all attempts: a completed request satisfies TokensOut + Truncated ==
	// OutputTokens, and re-dispatches carry the reduced budget so a cut is
	// never silently restored.
	Truncated int
	// FirstTokenAt/LastTokenAt are front-end stamps in global virtual time.
	FirstTokenAt sim.Time
	LastTokenAt  sim.Time
}

// TTFT is the time to first token; 0 before one was delivered.
func (r *LLMRequest) TTFT() time.Duration {
	if r.FirstTokenAt == 0 || r.FirstTokenAt < r.ArriveAt {
		return 0
	}
	return r.FirstTokenAt.Sub(r.ArriveAt)
}

// TPOT is the mean inter-token gap; 0 with fewer than two tokens.
func (r *LLMRequest) TPOT() time.Duration {
	if r.TokensOut < 2 || r.LastTokenAt <= r.FirstTokenAt {
		return 0
	}
	return r.LastTokenAt.Sub(r.FirstTokenAt) / time.Duration(r.TokensOut-1)
}

// llmReport is one attempt outcome, snapshotted in the device's own context
// so the closure the front-end runs touches no device-shard state.
type llmReport struct {
	tokensOut    int
	kvTokens     int
	truncated    int     // output-budget tokens this attempt's device cut
	kvUtil       float64 // device KV utilization at report time (pressure signal)
	firstTokenAt sim.Time
	lastTokenAt  sim.Time
	handedOff    bool
	err          error
}

// LLMCluster is a prefill/decode-disaggregated fleet on the sharded
// substrate; both engines (SingleHeap, Sharded) produce bit-identical runs.
type LLMCluster struct {
	fleet
	cfg     LLMConfig
	servers []*serving.LLMServer
	links   []*llm.Link // egress link per prefill device, owned by shard 0

	requests []*LLMRequest // retained unless Slim
	// prefillModel and decodeModel are the role pseudo-models the shared
	// router places; one decision log covers both pools.
	prefillModel, decodeModel string

	retryBudget *overload.RetryBudget
	retryRng    *rand.Rand

	completed, failed, shed, expired int
	partial, partialTokens           int
	retries, retryDenied             int
	tokensDelivered, truncatedTokens int
	perClass                         [overload.NumClasses]LLMClassStats

	// Fleet-level TTFT/TPOT histograms recorded at settle on shard 0; the
	// "all" series aggregates every class, the per-class series slice the
	// same completions by priority. Stats derives its percentiles from these
	// with bounded memory in both retained and Slim modes.
	ttftHist, tpotHist     *obs.Hist
	classTTFTs, classTPOTs [overload.NumClasses]*obs.Hist

	handoffsC *obs.Series
}

// NewLLM builds the disaggregated fleet: shard 0 the front-end, shard i+1
// device i (prefill replicas first, then decode).
func NewLLM(cfg LLMConfig, engine Engine) (*LLMCluster, error) {
	cfg = cfg.withDefaults()
	if cfg.PrefillReplicas < 1 || cfg.DecodeReplicas < 1 {
		return nil, fmt.Errorf("cluster: disaggregation needs ≥1 prefill and ≥1 decode replica (got %d+%d)",
			cfg.PrefillReplicas, cfg.DecodeReplicas)
	}
	if !model.IsLLM(cfg.Model) {
		return nil, fmt.Errorf("cluster: %q is not an autoregressive model", cfg.Model)
	}
	// Profile each distinct spec once; replicas share the fitted curves, and
	// the cost-weighted router charges prefill debt from the same fit.
	profiles := map[string]*profiler.LLMProfile{}
	for _, spec := range []gpu.Spec{cfg.PrefillSpec, cfg.DecodeSpec} {
		if _, ok := profiles[spec.Name]; ok {
			continue
		}
		prof, err := profiler.ProfileLLM(cfg.Model, spec, cfg.Seed)
		if err != nil {
			return nil, err
		}
		profiles[spec.Name] = prof
	}
	pprof := profiles[cfg.PrefillSpec.Name]
	dprof := profiles[cfg.DecodeSpec.Name]

	n := cfg.PrefillReplicas + cfg.DecodeReplicas
	c := &LLMCluster{cfg: cfg, prefillModel: cfg.Model + "#prefill", decodeModel: cfg.Model + "#decode"}
	c.fleet.init(fleetConfig{
		devices: n, seed: cfg.Seed, netLatency: cfg.NetLatency, workers: cfg.Workers,
		route: cfg.Route, slim: cfg.Slim, maxFailovers: cfg.MaxFailovers,
		obs: cfg.Obs, telemetry: cfg.Telemetry,
		debt: func(m string) (time.Duration, error) {
			// Per-dispatch debt for the cost-weighted policy: a
			// representative prefill pass, or a representative decode
			// residency.
			if m == c.decodeModel {
				return dprof.DecodeStep(1, 512) * 64, nil
			}
			return pprof.Prefill(256), nil
		},
	}, engine)
	reg := c.rec.Registry()
	c.handoffsC = reg.Counter("olympian_cluster_kv_handoffs_total", "KV shipments booked on transfer links.")
	reg.CounterView("olympian_cluster_llm_retries_total", "Requests re-dispatched after capacity rejections.", &c.retries)
	reg.CounterView("olympian_cluster_llm_retry_denied_total", "Retries refused by the front-end retry budget.", &c.retryDenied)
	c.retryBudget = overload.NewRetryBudget(cfg.RetryBudgetMax, cfg.RetryRefund)
	c.retryRng = rand.New(rand.NewSource(cfg.Seed ^ 0x72747279))
	c.ttftHist = obs.EnsureHist(reg.Histogram("olympian_cluster_ttft_seconds", "Fleet time to first token over completions.", "class", "all"))
	c.tpotHist = obs.EnsureHist(reg.Histogram("olympian_cluster_tpot_seconds", "Fleet mean inter-token gap over completions.", "class", "all"))
	for cls := overload.Class(0); cls < overload.NumClasses; cls++ {
		cl := cls.String()
		c.classTTFTs[cls] = obs.EnsureHist(reg.Histogram("olympian_cluster_ttft_seconds", "Fleet time to first token over completions.", "class", cl))
		c.classTPOTs[cls] = obs.EnsureHist(reg.Histogram("olympian_cluster_tpot_seconds", "Fleet mean inter-token gap over completions.", "class", cl))
	}
	warm := llmWarmupFor(cfg)
	prefillDevs := make([]int, 0, cfg.PrefillReplicas)
	decodeDevs := make([]int, 0, cfg.DecodeReplicas)

	for i := 0; i < n; i++ {
		role, spec, prof := llm.PrefillRole, cfg.PrefillSpec, pprof
		if i >= cfg.PrefillReplicas {
			role, spec, prof = llm.DecodeRole, cfg.DecodeSpec, dprof
		}
		env := c.shards.Env(i + 1)
		srv, err := serving.NewLLMServer(env, serving.LLMConfig{
			Spec:           spec,
			Model:          cfg.Model,
			Role:           role,
			MaxSeqs:        cfg.MaxSeqs,
			MaxBatchTokens: cfg.MaxBatchTokens,
			MaxQueue:       cfg.MaxQueue,
			BlockTokens:    cfg.BlockTokens,
			MaxStepTime:    cfg.MaxStepTime,
			TTFTDeadline:   cfg.TTFTDeadline,
			TPOTBudget:     cfg.TPOTBudget,
			Admission:      cfg.Admission,
			ExpectedOutput: cfg.ExpectedOutput,
			KVWatermark:    cfg.KVWatermark,
			DegradedTail:   cfg.DegradedTail,
			Seed:           cfg.Seed + int64(i)*101,
			Faults:         injector(cfg.Faults, cfg.Seed, i),
			Obs:            c.children[i+1],
			Device:         i,
			IsolateRand:    true,
			Slim:           cfg.Slim,
			Profile:        prof,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: device %d: %w", i, err)
		}
		c.servers = append(c.servers, srv)
		if role == llm.PrefillRole {
			prefillDevs = append(prefillDevs, i)
			c.links = append(c.links, llm.NewLink(cfg.LinkLatency, cfg.LinkBytesPerSec))
		} else {
			decodeDevs = append(decodeDevs, i)
		}

		// A crash unwinds every live sequence.
		c.watchCrashes(i, srv.Device(), warm, srv.OnCrash)
	}
	c.router.setReplicas(c.prefillModel, prefillDevs)
	c.router.setReplicas(c.decodeModel, decodeDevs)
	return c, nil
}

// llmWarmupFor models a replica's restart cost: base overhead plus
// re-copying the resident weights over the H2D link (an LLM replica always
// has its weights placed, unlike the lazy CNN fleet).
func llmWarmupFor(cfg LLMConfig) time.Duration {
	warm := cfg.WarmupBase
	if bytes, err := model.LLMWeightsBytes(cfg.Model); err == nil {
		warm += time.Duration(float64(bytes) / cfg.H2DBandwidth * float64(time.Second))
	}
	return warm
}

// SubmitEvent routes one generation request into the prefill pool. It must
// run in shard 0's execution context (an event callback or process on
// FrontEnv). Routing errors (every replica dead) are synchronous; a
// replica's own rejection arrives asynchronously as a failed attempt.
func (c *LLMCluster) SubmitEvent(class overload.Class, prompt, output int) (*LLMRequest, error) {
	dev, err := c.router.Route(c.prefillModel, false)
	if err != nil {
		return nil, err
	}
	r := &LLMRequest{PromptTokens: prompt, OutputTokens: output, PrefillDev: dev, DecodeDev: -1}
	c.admit(&r.request, class, dev, "llm_route")
	c.perClass[class].Submitted++
	if !c.cfg.Slim {
		c.requests = append(c.requests, r)
	}
	c.dispatchPrefill(r, dev)
	return r, nil
}

// dispatchPrefill sends one prefill attempt (first or recompute) to dev. The
// request's current TokensOut rides along as have, so a recompute rebuilds
// KV without re-emitting, and the output budget is reduced by any tokens a
// previous attempt's degraded mode cut — a truncation is never silently
// restored by a re-dispatch.
func (c *LLMCluster) dispatchPrefill(r *LLMRequest, dev int) {
	id := c.dispatch(&r.request, dev, false)
	r.PrefillDev = dev
	srv := c.servers[dev]
	class, prompt, have := r.Class, r.PromptTokens, r.TokensOut
	output := r.OutputTokens - r.Truncated
	mname := c.cfg.Model
	c.shards.Send(0, dev+1, c.net, func() {
		inner, err := srv.Submit(mname, class, prompt, output, have)
		c.report(r, id, dev, have, srv, inner, err)
	})
}

// report returns one attempt's outcome from device dev to the front-end
// under its (request, attempt id) pair: a synchronous rejection at once,
// carrying the have tokens already delivered, otherwise when the
// device-side request finishes. It runs in the device's context, so the
// report is snapshotted there and r is only carried, never read.
func (c *LLMCluster) report(r *LLMRequest, id, dev, have int, srv *serving.LLMServer, inner *llm.Request, err error) {
	if err != nil {
		rep := llmReport{tokensOut: have, err: err, kvUtil: srv.KVUtilization()}
		c.shards.Send(dev+1, 0, c.net, func() { c.attemptDone(r, id, rep) })
		return
	}
	inner.Done().Subscribe(func() {
		rep := llmReport{
			tokensOut:    inner.TokensOut,
			kvTokens:     inner.KVTokens(),
			truncated:    inner.Truncated,
			kvUtil:       srv.KVUtilization(),
			firstTokenAt: inner.FirstTokenAt,
			lastTokenAt:  inner.LastTokenAt,
			handedOff:    inner.HandedOff,
			err:          inner.Err,
		}
		c.shards.Send(dev+1, 0, c.net, func() { c.attemptDone(r, id, rep) })
	})
}

// attemptDone folds one attempt's report in on shard 0. A failed attempt
// fails over, retries or settles; a prefill that handed its KV off moves on
// to decode; any other success — a decode, or a prefill that already met
// the budget (single-token outputs) — settles the request.
func (c *LLMCluster) attemptDone(r *LLMRequest, id int, rep llmReport) {
	att, open := c.fold(&r.request, id)
	c.router.SetPressure(att.dev, rep.kvUtil)
	if !open {
		return
	}
	c.absorb(r, rep)
	switch {
	case rep.err != nil:
		c.attemptFailed(r, rep)
	case rep.handedOff:
		c.handoff(r, att.dev, rep)
	default:
		c.settle(r, nil)
	}
}

// handoff books a finished prefill's KV shipment on the device's egress link
// and dispatches the decode ingest to arrive when the transfer completes.
func (c *LLMCluster) handoff(r *LLMRequest, dev int, rep llmReport) {
	ddev, err := c.router.Route(c.decodeModel, false)
	if err != nil {
		c.settle(r, err)
		return
	}
	r.DecodeDev = ddev
	c.routesC.Inc()
	kvPerTok, _ := model.LLMKVBytesPerToken(c.cfg.Model)
	bytes := int64(rep.kvTokens) * kvPerTok
	now := c.shards.Env(0).Now()
	// The link index is the prefill device's position in the prefill pool;
	// prefill devices are 0..P-1, so it is dev itself.
	done := c.links[dev].Transfer(now, bytes)
	c.handoffsC.Inc()
	c.rec.Instant(obs.LayerCluster, "llm_handoff", r.ID, int(r.Class), dev, bytes)
	c.dispatchDecode(r, ddev, rep, done.Sub(now))
}

// dispatchDecode sends the ingest to the decode replica after the KV
// transfer completes.
func (c *LLMCluster) dispatchDecode(r *LLMRequest, dev int, rep llmReport, delay time.Duration) {
	id := c.dispatch(&r.request, dev, false)
	srv := c.servers[dev]
	class, prompt := r.Class, r.PromptTokens
	output := r.OutputTokens - r.Truncated
	have := rep.tokensOut
	arriveAt, firstAt, lastAt := r.ArriveAt, r.FirstTokenAt, r.LastTokenAt
	c.shards.Send(0, dev+1, delay, func() {
		inner, err := srv.Ingest(class, prompt, output, have, arriveAt, firstAt, lastAt)
		c.report(r, id, dev, have, srv, inner, err)
	})
}

// absorb merges an attempt's token progress into the front-end record.
// TokensOut only grows (conservation: recomputes re-emit nothing), the
// first-token stamp is set exactly once, and attempt-local truncation
// accumulates (each attempt starts from the already-reduced budget).
func (c *LLMCluster) absorb(r *LLMRequest, rep llmReport) {
	if rep.tokensOut > r.TokensOut {
		r.TokensOut = rep.tokensOut
	}
	if r.FirstTokenAt == 0 && rep.firstTokenAt != 0 {
		r.FirstTokenAt = rep.firstTokenAt
	}
	if rep.lastTokenAt > r.LastTokenAt {
		r.LastTokenAt = rep.lastTokenAt
	}
	r.Truncated += rep.truncated
}

// retryable reports whether an attempt error is a capacity rejection worth
// retrying elsewhere: an admission shed, a queue overflow, or KV exhaustion
// on one replica says nothing about its peers (especially under least-KV
// routing). TTFT expiry is not retryable — the deadline is already blown.
func (c *LLMCluster) retryable(err error) bool {
	return errors.Is(err, serving.ErrShed) ||
		errors.Is(err, serving.ErrQueueFull) ||
		errors.Is(err, serving.ErrKVExhausted)
}

// attemptFailed decides between failover, retry, and settlement for a
// failed attempt. Drains (crashes) fail over; capacity rejections retry
// through the same partial-carry dispatch path after a jittered backoff,
// gated by the front-end retry budget so rejection storms cannot amplify.
func (c *LLMCluster) attemptFailed(r *LLMRequest, rep llmReport) {
	if next, ok := c.failover(&r.request, rep.err, c.prefillModel, "llm_failover"); ok {
		c.dispatchPrefill(r, next)
		return
	}
	if c.retryable(rep.err) && r.Retries < c.cfg.MaxRetries {
		if !c.retryBudget.Allow() {
			c.retryDenied++
		} else {
			attempt := r.Retries
			r.Retries++
			c.retries++
			delay := overload.Backoff(c.cfg.RetryBackoff, attempt, c.cfg.RetryJitter, c.retryRng.Float64())
			c.rec.Instant(obs.LayerCluster, "llm_retry", r.ID, int(r.Class), obs.NoDevice, int64(delay))
			origErr := rep.err
			c.shards.Env(0).Schedule(delay, func() {
				if r.settled {
					return
				}
				next, rerr := c.router.Route(c.prefillModel, true)
				if rerr != nil {
					c.settle(r, origErr)
					return
				}
				c.dispatchPrefill(r, next)
			})
			return
		}
	}
	c.settle(r, rep.err)
}

// settle decides the request on shard 0.
func (c *LLMCluster) settle(r *LLMRequest, err error) {
	c.stamp(&r.request, err)
	c.tokensDelivered += r.TokensOut
	c.truncatedTokens += r.Truncated
	pc := &c.perClass[r.Class]
	pc.TruncatedTokens += r.Truncated
	switch {
	case err == nil:
		c.completed++
		pc.Completed++
		c.retryBudget.OnSuccess()
		if ttft := r.TTFT(); ttft > 0 {
			c.ttftHist.Observe(ttft)
			c.classTTFTs[r.Class].Observe(ttft)
		}
		if tpot := r.TPOT(); tpot > 0 {
			c.tpotHist.Observe(tpot)
			c.classTPOTs[r.Class].Observe(tpot)
		}
	case errors.Is(err, serving.ErrExpired):
		c.expired++
		pc.Expired++
		pc.LostTokens += r.OutputTokens - r.Truncated - r.TokensOut
	case errors.Is(err, serving.ErrQueueFull), errors.Is(err, serving.ErrShed):
		c.shed++
		pc.Shed++
		pc.LostTokens += r.OutputTokens - r.Truncated - r.TokensOut
	default:
		c.failed++
		pc.Failed++
		pc.LostTokens += r.OutputTokens - r.Truncated - r.TokensOut
		if r.TokensOut > 0 {
			c.partial++
			c.partialTokens += r.TokensOut
		}
	}
	c.rec.Instant(obs.LayerCluster, "llm_settle", r.ID, int(r.Class), obs.NoDevice, int64(r.TokensOut))
}

// Server returns device i's LLM serving replica.
func (c *LLMCluster) Server(i int) *serving.LLMServer { return c.servers[i] }

// Requests returns all fleet-level requests; nil in Slim mode.
func (c *LLMCluster) Requests() []*LLMRequest { return c.requests }

// LLMClassStats is one priority class's fleet-level accounting. LostTokens
// is output budget never delivered on shed/expired/failed settlements;
// TruncatedTokens budget cut by degraded mode. Under overload-control the
// two should concentrate in the batch class while interactive TTFT holds.
type LLMClassStats struct {
	Submitted int
	Completed int
	Failed    int
	Shed      int
	Expired   int
	// LostTokens + TruncatedTokens is the class's absorbed degradation.
	LostTokens      int
	TruncatedTokens int
	// TTFT and TPOT summarize the class's completions, seconds.
	TTFT metrics.Percentiles
	TPOT metrics.Percentiles
}

// LLMClusterStats summarizes a disaggregated fleet's run. Rates use the
// shard horizon as the elapsed-time denominator so both engines report
// identical values; everything is DeepEqual-comparable for differential
// tests.
type LLMClusterStats struct {
	Devices         int
	PrefillReplicas int
	DecodeReplicas  int
	// Conservation: Requests == Completed + Failed + Shed + Expired after
	// quiescence.
	Requests  int
	Completed int
	Failed    int
	Shed      int
	// Expired counts requests shed un-run past their TTFT deadline.
	Expired int
	// Partial counts failed requests that had delivered tokens;
	// PartialTokens those tokens.
	Partial       int
	PartialTokens int
	Failovers     int
	Crashes       int
	Revives       int
	// Retries counts capacity-rejection re-dispatches; RetryDenied the
	// retries the front-end budget refused.
	Retries     int
	RetryDenied int
	// TruncatedTokens sums output-budget tokens degraded mode cut over
	// settled requests; conservation demands it equal the per-device
	// TruncatedTokens sum.
	TruncatedTokens int
	// TokensDelivered sums final TokensOut over settled requests; token
	// conservation demands it equal the per-device TokensEmitted sum.
	TokensDelivered int
	TokensEmitted   int
	Preemptions     int
	// Transfers and TransferBytes tally the KV handoff links.
	Transfers     int
	TransferBytes int64
	// Tokens holds fleet-level TTFT/TPOT percentiles over completions.
	Tokens metrics.TokenPercentiles
	// PerClass breaks conservation, degradation absorption, and token
	// latencies down by priority class.
	PerClass [overload.NumClasses]LLMClassStats
	// Goodput is completions/s; TokensPerSec delivered tokens/s.
	Goodput      float64
	TokensPerSec float64
	PerDevice    []serving.LLMStats
	Decisions    int
	DecisionHash uint64
}

// Stats summarizes the fleet's activity so far.
func (c *LLMCluster) Stats() LLMClusterStats {
	st := LLMClusterStats{
		Devices:         len(c.servers),
		PrefillReplicas: c.cfg.PrefillReplicas,
		DecodeReplicas:  c.cfg.DecodeReplicas,
		Requests:        c.reqCount,
		Completed:       c.completed,
		Failed:          c.failed,
		Shed:            c.shed,
		Expired:         c.expired,
		Partial:         c.partial,
		PartialTokens:   c.partialTokens,
		Failovers:       c.failovers,
		Crashes:         c.crashes,
		Revives:         c.revives,
		Retries:         c.retries,
		RetryDenied:     c.retryDenied,
		TruncatedTokens: c.truncatedTokens,
		TokensDelivered: c.tokensDelivered,
		Tokens: metrics.TokenPercentiles{
			TTFT: serving.HistPercentiles(c.ttftHist),
			TPOT: serving.HistPercentiles(c.tpotHist),
		},
		PerClass:     c.perClass,
		Decisions:    c.router.Count(),
		DecisionHash: c.router.DecisionHash(),
	}
	for cls := range st.PerClass {
		st.PerClass[cls].TTFT = serving.HistPercentiles(c.classTTFTs[cls])
		st.PerClass[cls].TPOT = serving.HistPercentiles(c.classTPOTs[cls])
	}
	for _, srv := range c.servers {
		ds := srv.Stats()
		st.PerDevice = append(st.PerDevice, ds)
		st.TokensEmitted += ds.TokensEmitted
		st.Preemptions += ds.Preemptions
	}
	for _, l := range c.links {
		st.Transfers += l.Transfers()
		st.TransferBytes += l.Bytes()
	}
	if now := c.shards.Horizon(); now > 0 {
		st.Goodput = float64(st.Completed) / now.Seconds()
		st.TokensPerSec = float64(st.TokensDelivered) / now.Seconds()
	}
	return st
}

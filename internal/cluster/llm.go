// Prefill/decode-disaggregated LLM fleet: prefill replicas compute prompt
// KV and first tokens, decode replicas stream the rest, and the KV cache
// travels between them over a modeled interconnect.
//
// The topology reuses the sharded substrate: shard 0 is the front-end
// (router, request bookkeeping, transfer links), shard i+1 hosts device i's
// serving.LLMServer. Devices 0..P-1 run llm.PrefillRole, P..P+D-1
// llm.DecodeRole. One Router covers both pools through role pseudo-models
// ("<model>#prefill", "<model>#decode"), so one DecisionHash fingerprints
// every placement choice across the whole fleet.
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
	// DecodeSpec picks the decode pool's platform; the zero value takes the
	// reference GTX 1080 Ti, which the prefill pool always runs on. A small
	// DecodeSpec.MemoryBytes is how the llm experiment provokes KV pressure.
	DecodeSpec gpu.Spec
	// MaxSeqs bounds each decode replica's continuous batch
	// (serving.LLMConfig semantics).
	MaxSeqs int
	// MaxQueue bounds each replica's prefill queue (0 = unbounded).
	MaxQueue int
	// TTFTDeadline and TPOTBudget arm per-request token SLOs on every
	// replica: queued prefills past the TTFT deadline are shed un-run, and
	// completions over the TPOT budget count as decode SLO misses.
	TTFTDeadline time.Duration
	TPOTBudget   time.Duration
	// Admission, when non-nil, arms each replica's token-rate AIMD
	// admission gate, which charges each request its own output budget.
	Admission *overload.AIMDConfig
	// KVWatermark and DegradedTail arm degraded mode on every replica:
	// above the watermark batch-class output budgets are truncated
	// (serving.LLMConfig semantics).
	KVWatermark  float64
	DegradedTail int
	// MaxRetries caps per-request retries after capacity rejections (shed,
	// queue-full, KV exhaustion); 0 disables them. A retry re-dispatches
	// through the crash-failover path — delivered tokens carried, never
	// re-emitted — after a jittered exponential backoff (llmRetryBackoff,
	// llmRetryJitter), gated by the front-end retry budget (llmRetryBudget
	// tokens, llmRetryRefund back per completion).
	MaxRetries int
	// Route selects the routing policy (default LeastOutstanding).
	Route RoutePolicy
	// Faults optionally injects per-device fault plans; index i applies to
	// device i in the prefill-then-decode order.
	Faults []*faults.Plan
	// Workers is ignored, as in Config.
	Workers int
	// Slim is ignored, as in Config.
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
	if cfg.DecodeSpec.Name == "" {
		cfg.DecodeSpec = gpu.GTX1080Ti
	}
	if cfg.Route == 0 {
		cfg.Route = LeastOutstanding
	}
	return cfg
}

// The LLM fleet's failover and retry constants: a request fails over at most
// llmMaxFailovers times; capacity-rejection retries back off exponentially
// from llmRetryBackoff with llmRetryJitter relative jitter and spend a
// front-end pool of llmRetryBudget tokens that refunds llmRetryRefund per
// completion.
const (
	llmMaxFailovers = 2
	llmRetryBudget  = 32
	llmRetryRefund  = 0.1
	llmRetryBackoff = 200 * time.Microsecond
	llmRetryJitter  = 0.2
)

// LLMRequest is one generation request as the fleet front-end sees it. ID,
// Class, Hops, ArriveAt, FinishAt and Err come from the shared request
// state.
type LLMRequest struct {
	request
	// PromptTokens and OutputTokens are the request's dimensions.
	PromptTokens int
	OutputTokens int
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
// so the front-end reads no device-shard state.
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
	links   []*llm.Link   // egress link per prefill device, owned by shard 0
	free    []*llmAttempt // attempt records, owned by shard 0

	// prefillModel and decodeModel are the role pseudo-models the shared
	// router places; one decision fingerprint covers both pools.
	prefillModel, decodeModel string

	retryBudget *overload.RetryBudget
	retryRng    *rand.Rand

	partial, partialTokens int
	retries, retryDenied   int
	tokensDelivered        int
	handoffs               int // KV shipments booked on the transfer links
	// perClass holds the settlement tallies the fleet totals sum.
	perClass [overload.NumClasses]LLMClassStats

	// Fleet-level TTFT/TPOT histograms recorded at settle on shard 0; the
	// "all" series aggregates every class, the per-class series slice the
	// same completions by priority. Stats derives its percentiles from these
	// with bounded memory.
	ttftHist, tpotHist     *obs.Hist
	classTTFTs, classTPOTs [overload.NumClasses]*obs.Hist

	onSettle []func(*LLMRequest) // OnSettle's observers
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
	// The cost-weighted router charges prefill and decode debt from each
	// pool's fitted curves, profiled once per distinct platform.
	pprof, err := profiler.ProfileLLM(cfg.Model, gpu.GTX1080Ti, cfg.Seed)
	if err != nil {
		return nil, err
	}
	dprof := pprof
	if cfg.DecodeSpec.Name != gpu.GTX1080Ti.Name {
		if dprof, err = profiler.ProfileLLM(cfg.Model, cfg.DecodeSpec, cfg.Seed); err != nil {
			return nil, err
		}
	}

	n := cfg.PrefillReplicas + cfg.DecodeReplicas
	c := &LLMCluster{cfg: cfg, prefillModel: cfg.Model + "#prefill", decodeModel: cfg.Model + "#decode"}
	c.fleet.init(fleetConfig{
		devices: n, seed: cfg.Seed, route: cfg.Route, maxFailovers: llmMaxFailovers,
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
	// A decode hand-off is a second routing decision for its request.
	reg.CounterView("olympian_cluster_routes_total", "Routing decisions.", &c.handoffs)
	reg.CounterView("olympian_cluster_kv_handoffs_total", "KV shipments booked on transfer links.", &c.handoffs)
	reg.CounterView("olympian_cluster_llm_retries_total", "Requests re-dispatched after capacity rejections.", &c.retries)
	reg.CounterView("olympian_cluster_llm_retry_denied_total", "Retries refused by the front-end retry budget.", &c.retryDenied)
	c.retryBudget = overload.NewRetryBudget(llmRetryBudget, llmRetryRefund)
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
		role, spec := llm.PrefillRole, gpu.GTX1080Ti
		if i >= cfg.PrefillReplicas {
			role, spec = llm.DecodeRole, cfg.DecodeSpec
		}
		env := c.shards.Env(i + 1)
		srv, err := serving.NewLLMServer(env, serving.LLMConfig{
			Spec:         spec,
			Model:        cfg.Model,
			Role:         role,
			MaxSeqs:      cfg.MaxSeqs,
			MaxQueue:     cfg.MaxQueue,
			TTFTDeadline: cfg.TTFTDeadline,
			TPOTBudget:   cfg.TPOTBudget,
			Admission:    cfg.Admission,
			KVWatermark:  cfg.KVWatermark,
			DegradedTail: cfg.DegradedTail,
			Seed:         cfg.Seed + int64(i)*101,
			Faults:       injector(cfg.Faults, cfg.Seed, i),
			Obs:          c.children[i+1],
			Device:       i,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: device %d: %w", i, err)
		}
		c.servers = append(c.servers, srv)
		if role == llm.PrefillRole {
			prefillDevs = append(prefillDevs, i)
			c.links = append(c.links, new(llm.Link))
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
	warm := DefaultWarmupBase
	if bytes, err := model.LLMWeightsBytes(cfg.Model); err == nil {
		warm += h2dCopy(bytes)
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
	r := &LLMRequest{PromptTokens: prompt, OutputTokens: output}
	c.admit(&r.request, class, dev, "llm_route")
	c.perClass[class].Submitted++
	c.dispatchPrefill(r, dev)
	return r, nil
}

// dispatchPrefill sends one prefill attempt (first or recompute) to dev. The
// request's current TokensOut rides along as have, so a recompute rebuilds
// KV without re-emitting, and the output budget is reduced by any tokens a
// previous attempt's degraded mode cut — a truncation is never silently
// restored by a re-dispatch.
func (c *LLMCluster) dispatchPrefill(r *LLMRequest, dev int) {
	t := c.newAttempt(r, dev, false)
	t.have = r.TokensOut
	t.next = (*llmAttempt).run
	c.shards.Send(0, dev+1, DefaultNetLatency, t.hop)
}

// llmAttempt is one prefill or decode attempt's record, carried to the
// device by the dispatch message and back by the report. Ownership moves
// with the messages: shard 0 fills it and sends it, the device then alone
// touches it until it sends the report, and shard 0 returns it to the free
// list at fold. The record holds the device-side request by value: the
// replica drops every reference to it at or before its Done event fires,
// and the report that returns the record to the free list leaves the device
// only after that, so a reused record never aliases a live request.
type llmAttempt struct {
	c *LLMCluster

	// Set on shard 0 before the dispatch message: the request and attempt id
	// the report returns under, and the device op's arguments.
	req                       *LLMRequest
	id, dev                   int
	srv                       *serving.LLMServer
	decode                    bool
	class                     overload.Class
	prompt, output, have      int
	arriveAt, firstAt, lastAt sim.Time // decode ingest only

	// Set on the device: the replica's request, initialized by Submit or
	// Ingest, and the report it sends back.
	inner llm.Request
	rep   llmReport

	// hop is t.step bound once: both messages and the completion
	// subscription deliver it, and next names the action it runs there
	// (run on the device, done on the device at completion, back on
	// shard 0). A method expression allocates nothing, so beyond its share
	// of a block a record costs one closure, made when the block is.
	hop  func()
	next func(*llmAttempt)
}

// llmAttemptBlock is how many attempt records newAttempt allocates at once
// when the free list is empty.
const llmAttemptBlock = 64

// step runs the attempt's next action.
func (t *llmAttempt) step() { t.next(t) }

// newAttempt takes a record from shard 0's free list, refilling the list a
// block of records at a time, and opens attempt r on dev with the arguments
// both roles share.
func (c *LLMCluster) newAttempt(r *LLMRequest, dev int, decode bool) *llmAttempt {
	if len(c.free) == 0 {
		block := make([]llmAttempt, llmAttemptBlock)
		for i := range block {
			t := &block[i]
			t.c = c
			t.hop = t.step
			c.free = append(c.free, t)
		}
	}
	t := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	t.req, t.dev, t.srv, t.decode = r, dev, c.servers[dev], decode
	t.id = c.dispatch(&r.request, dev, false)
	t.class, t.prompt, t.output = r.Class, r.PromptTokens, r.OutputTokens-r.Truncated
	return t
}

// run executes the attempt's op on the device. A synchronous rejection
// reports at once, carrying the have tokens already delivered; otherwise the
// report waits for the device-side request to finish.
func (t *llmAttempt) run() {
	var err error
	if t.decode {
		err = t.srv.Ingest(&t.inner, t.class, t.prompt, t.output, t.have, t.arriveAt, t.firstAt, t.lastAt)
	} else {
		err = t.srv.Submit(&t.inner, t.c.cfg.Model, t.class, t.prompt, t.output, t.have)
	}
	if err != nil {
		t.send(llmReport{tokensOut: t.have, err: err, kvUtil: t.srv.KVUtilization()})
		return
	}
	t.next = (*llmAttempt).done
	t.inner.Done().Subscribe(t.hop)
}

// done runs on the device when the attempt's request finishes.
func (t *llmAttempt) done() {
	in := &t.inner
	t.send(llmReport{
		tokensOut:    in.TokensOut,
		kvTokens:     in.KVTokens(),
		truncated:    in.Truncated,
		kvUtil:       t.srv.KVUtilization(),
		firstTokenAt: in.FirstTokenAt,
		lastTokenAt:  in.LastTokenAt,
		handedOff:    in.HandedOff,
		err:          in.Err,
	})
}

// send reports the outcome, snapshotted in the device's own context, to the
// front-end.
func (t *llmAttempt) send(rep llmReport) {
	t.rep = rep
	t.next = (*llmAttempt).back
	t.c.shards.Send(t.dev+1, 0, DefaultNetLatency, t.hop)
}

// back runs on shard 0 when the report message is delivered.
func (t *llmAttempt) back() { t.c.attemptDone(t) }

// attemptDone folds one attempt's report in on shard 0. A failed attempt
// fails over, retries or settles; a prefill that handed its KV off moves on
// to decode; any other success — a decode, or a prefill that already met
// the budget (single-token outputs) — settles the request.
func (c *LLMCluster) attemptDone(t *llmAttempt) {
	r, rep := t.req, t.rep
	att, open := c.fold(&r.request, t.id)
	t.req, t.srv, t.rep = nil, nil, llmReport{}
	c.free = append(c.free, t)
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
	kvPerTok, _ := model.LLMKVBytesPerToken(c.cfg.Model)
	bytes := int64(rep.kvTokens) * kvPerTok
	now := c.shards.Env(0).Now()
	// The link index is the prefill device's position in the prefill pool;
	// prefill devices are 0..P-1, so it is dev itself.
	done := c.links[dev].Transfer(now, bytes)
	c.handoffs++
	c.rec.Instant(obs.LayerCluster, "llm_handoff", r.ID, int(r.Class), dev, bytes)
	c.dispatchDecode(r, ddev, rep, done.Sub(now))
}

// dispatchDecode sends the ingest to the decode replica after the KV
// transfer completes.
func (c *LLMCluster) dispatchDecode(r *LLMRequest, dev int, rep llmReport, delay time.Duration) {
	t := c.newAttempt(r, dev, true)
	t.have = rep.tokensOut
	t.arriveAt, t.firstAt, t.lastAt = r.ArriveAt, r.FirstTokenAt, r.LastTokenAt
	t.next = (*llmAttempt).run
	c.shards.Send(0, dev+1, delay, t.hop)
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
			delay := overload.Backoff(llmRetryBackoff, attempt, llmRetryJitter, c.retryRng.Float64())
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

// settle decides the request on shard 0, then runs the OnSettle observers.
func (c *LLMCluster) settle(r *LLMRequest, err error) {
	c.stamp(&r.request, err)
	c.tokensDelivered += r.TokensOut
	pc := &c.perClass[r.Class]
	pc.TruncatedTokens += r.Truncated
	switch {
	case err == nil:
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
		pc.Expired++
		pc.LostTokens += r.OutputTokens - r.Truncated - r.TokensOut
	case errors.Is(err, serving.ErrQueueFull), errors.Is(err, serving.ErrShed):
		pc.Shed++
		pc.LostTokens += r.OutputTokens - r.Truncated - r.TokensOut
	default:
		pc.Failed++
		pc.LostTokens += r.OutputTokens - r.Truncated - r.TokensOut
		if r.TokensOut > 0 {
			c.partial++
			c.partialTokens += r.TokensOut
		}
	}
	c.rec.Instant(obs.LayerCluster, "llm_settle", r.ID, int(r.Class), obs.NoDevice, int64(r.TokensOut))
	for _, fn := range c.onSettle {
		fn(r)
	}
}

// Server returns device i's LLM serving replica.
func (c *LLMCluster) Server(i int) *serving.LLMServer { return c.servers[i] }

// OnSettle registers fn to run as each request settles, after every tally
// is booked; observers run in registration order. Register before Run. An
// observer must not mutate the request or schedule events.
func (c *LLMCluster) OnSettle(fn func(*LLMRequest)) { c.onSettle = append(c.onSettle, fn) }

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
		Partial:         c.partial,
		PartialTokens:   c.partialTokens,
		Failovers:       c.failovers,
		Crashes:         c.crashes,
		Revives:         c.revives,
		Retries:         c.retries,
		RetryDenied:     c.retryDenied,
		TokensDelivered: c.tokensDelivered,
		Transfers:       c.handoffs,
		Tokens: metrics.TokenPercentiles{
			TTFT: serving.HistPercentiles(c.ttftHist),
			TPOT: serving.HistPercentiles(c.tpotHist),
		},
		PerClass:     c.perClass,
		Decisions:    c.router.Count(),
		DecisionHash: c.router.DecisionHash(),
	}
	for cls := range st.PerClass {
		pc := &st.PerClass[cls]
		st.Completed += pc.Completed
		st.Failed += pc.Failed
		st.Shed += pc.Shed
		st.Expired += pc.Expired
		st.TruncatedTokens += pc.TruncatedTokens
		pc.TTFT = serving.HistPercentiles(c.classTTFTs[cls])
		pc.TPOT = serving.HistPercentiles(c.classTPOTs[cls])
	}
	for _, srv := range c.servers {
		ds := srv.Stats()
		st.PerDevice = append(st.PerDevice, ds)
		st.TokensEmitted += ds.TokensEmitted
		st.Preemptions += ds.Preemptions
	}
	for _, l := range c.links {
		st.TransferBytes += l.Bytes()
	}
	if now := c.shards.Horizon(); now > 0 {
		st.Goodput = float64(st.Completed) / now.Seconds()
		st.TokensPerSec = float64(st.TokensDelivered) / now.Seconds()
	}
	return st
}

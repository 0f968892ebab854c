// Package overload is the serving stack's overload control plane: the
// mechanisms that keep goodput flat when offered load exceeds the quantum
// budget Olympian planned for (T_j = Q·C_j/D_j only predicts finish times
// while queues are stable).
//
// Four cooperating pieces live here:
//
//   - an AIMD adaptive admission Limiter: each model's limit, in requests
//     or predicted tokens, grows additively on deadline-met completions and
//     shrinks multiplicatively on congestion signals, so admission tracks
//     the capacity the device actually delivers instead of a static queue
//     cap;
//   - priority Classes (interactive > batch) with strict-priority
//     shedding: under pressure the serving layer drops low-priority work
//     first and can displace queued low-priority requests to admit
//     high-priority arrivals;
//   - a client RetryBudget with jittered exponential Backoff, so injected
//     failures cannot snowball into a retry storm that melts the server;
//   - deterministic hedge timing for the cluster router (the router owns
//     dispatch; this package only supplies the policy arithmetic).
//
// The package depends on nothing above the standard library: all timing is
// passed in by callers (virtual time from the simulation kernel), and all
// randomness is passed in as pre-drawn uniform samples, which is what keeps
// same-seed runs bit-identical.
package overload

import (
	"fmt"
	"math"
	"time"
)

// Class is a request priority class. Higher values are strictly more
// important: under pressure the serving layer sheds lower classes first.
type Class int

// Priority classes, lowest first.
const (
	// Batch is throughput-oriented background work: the first to be shed.
	Batch Class = iota
	// Interactive is latency-sensitive user-facing work: shed last.
	Interactive
	// NumClasses bounds per-class metric arrays.
	NumClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Batch:
		return "batch"
	case Interactive:
		return "interactive"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Valid reports whether c is a usable class value.
func (c Class) Valid() bool { return c >= 0 && c < NumClasses }

// AIMDConfig parameterises an adaptive admission Limiter. Limits and steps
// are in the limiter's cost unit: requests for a serving front-end, predicted
// tokens for an LLM server. A zero field selects the unit's default: 8 / 1 /
// 256 / 1 for requests and 4096 / 512 / 262144 / 64 for tokens (Initial /
// Min / Max / Add), Beta 0.7 and Cooldown 5ms for both.
type AIMDConfig struct {
	// Initial is the starting limit.
	Initial float64
	// Min is the limit's floor.
	Min float64
	// Max is the limit's ceiling.
	Max float64
	// Add is the additive-increase step: a deadline-met completion of cost c
	// grows the limit by Add·c/limit, i.e. the limit grows by Add per limit's
	// worth of successful cost — the classic per-round AIMD slope.
	Add float64
	// Beta is the multiplicative-decrease factor applied on a congestion
	// signal, in (0,1).
	Beta float64
	// Cooldown is the minimum spacing between multiplicative decreases, so
	// one burst of congestion signals at a single instant counts as one
	// congestion event, not dozens.
	Cooldown time.Duration
}

// TokenAIMDConfig is AIMDConfig under its former LLM-specific name, kept
// because the benchmark's workload definitions still spell it.
type TokenAIMDConfig = AIMDConfig

// Unit is what a Limiter's cost counts; it picks the config defaults.
type Unit int

// Cost units.
const (
	// Requests charges every request cost 1.
	Requests Unit = iota
	// Tokens charges a request its predicted token footprint (prompt +
	// expected output), so one long document and a dozen chat turns charge
	// the gate proportionally.
	Tokens
)

// defaults holds each unit's zero-field defaults.
var defaults = [...]AIMDConfig{
	Requests: {Initial: 8, Min: 1, Max: 256, Add: 1, Beta: 0.7, Cooldown: 5 * time.Millisecond},
	Tokens:   {Initial: 4096, Min: 512, Max: 262144, Add: 64, Beta: 0.7, Cooldown: 5 * time.Millisecond},
}

// withDefaults fills unset fields from def.
func (c AIMDConfig) withDefaults(def AIMDConfig) AIMDConfig {
	if c.Initial <= 0 {
		c.Initial = def.Initial
	}
	if c.Min <= 0 {
		c.Min = def.Min
	}
	if c.Max <= 0 {
		c.Max = def.Max
	}
	if c.Add <= 0 {
		c.Add = def.Add
	}
	if c.Beta <= 0 || c.Beta >= 1 {
		c.Beta = def.Beta
	}
	if c.Cooldown <= 0 {
		c.Cooldown = def.Cooldown
	}
	return c
}

// Validate rejects nonsensical explicit settings (negative bounds, an
// inverted Min/Max pair, Beta outside (0,1)).
func (c AIMDConfig) Validate() error {
	if c.Initial < 0 || c.Min < 0 || c.Max < 0 || c.Add < 0 {
		return fmt.Errorf("overload: negative AIMD parameter (initial=%v min=%v max=%v add=%v)",
			c.Initial, c.Min, c.Max, c.Add)
	}
	if c.Beta < 0 || c.Beta >= 1 {
		return fmt.Errorf("overload: AIMD beta %v outside [0,1)", c.Beta)
	}
	if c.Min > 0 && c.Max > 0 && c.Min > c.Max {
		return fmt.Errorf("overload: AIMD min %v above max %v", c.Min, c.Max)
	}
	if c.Cooldown < 0 {
		return fmt.Errorf("overload: negative AIMD cooldown %v", c.Cooldown)
	}
	return nil
}

// batchFrac is the fraction of the limit visible to classes below
// Interactive: the headroom near the limit stays reserved for interactive
// arrivals, so shedding starts at the bottom of the priority lattice.
const batchFrac = 0.8

// Limiter is a cost-weighted AIMD admission limiter: in-flight cost is held
// against an adaptive limit that grows additively on deadline-met
// completions and shrinks multiplicatively on congestion signals. It is
// simulation state: single-goroutine use only, with time supplied by the
// caller.
type Limiter struct {
	cfg      AIMDConfig
	limit    float64
	inflight int // admitted-and-unfinished cost

	nextDecrease time.Duration

	admitted  int
	sheds     int
	decreases int
}

// NewLimiter returns a limiter at cfg's initial limit, with zero fields
// taken from unit's defaults.
func NewLimiter(cfg AIMDConfig, unit Unit) *Limiter {
	cfg = cfg.withDefaults(defaults[unit])
	return &Limiter{cfg: cfg, limit: cfg.Initial}
}

// Limit returns the current limit.
func (l *Limiter) Limit() float64 { return l.limit }

// Admitted returns how many requests were admitted so far.
func (l *Limiter) Admitted() int { return l.admitted }

// Sheds returns how many sheds and congestion signals the limiter has
// absorbed.
func (l *Limiter) Sheds() int { return l.sheds }

// Decreases returns how many multiplicative decreases fired.
func (l *Limiter) Decreases() int { return l.decreases }

// HasCapacity reports whether a request of the given cost fits under the
// class's fraction of the current limit: all of it for Interactive, 80% for
// Batch. An idle limiter always admits: a lone request larger than the
// class's share must run, not wait at a gate nothing else is holding.
func (l *Limiter) HasCapacity(class Class, cost int) bool {
	if l.inflight == 0 {
		return true
	}
	frac := 1.0
	if class < Interactive {
		frac = batchFrac
	}
	return float64(l.inflight+max(cost, 0)) <= math.Floor(l.limit*frac)
}

// Acquire admits one request of the given cost.
func (l *Limiter) Acquire(cost int) {
	l.inflight += max(cost, 0)
	l.admitted++
}

// Release retires an admitted request's cost, whatever its outcome.
func (l *Limiter) Release(cost int) {
	l.inflight = max(l.inflight-max(cost, 0), 0)
}

// OnSuccess is the additive-increase signal: a request of the given cost
// completed within its deadline, so capacity is there to be claimed.
func (l *Limiter) OnSuccess(cost int) {
	if cost <= 0 {
		return
	}
	l.limit = math.Min(l.limit+l.cfg.Add*float64(cost)/math.Max(l.limit, 1), l.cfg.Max)
}

// NoteShed records a shed caused by the limiter itself without cutting the
// limit. The limiter refusing work is flow control doing its job, not
// evidence the device is over capacity — feeding its own sheds back as
// congestion would pin the limit at Min for as long as offered load stays
// high, collapsing goodput instead of protecting it.
func (l *Limiter) NoteShed() { l.sheds++ }

// OnCongestion is the multiplicative-decrease signal at virtual time now: a
// server-side SLO failure (a queue-overflow drop, an in-queue or TTFT
// expiry, a deadline miss) or KV-cache pressure. Decreases within the
// cooldown of the previous one are coalesced: the burst still counts in
// Sheds but cuts the limit only once. It reports whether the limit was cut.
func (l *Limiter) OnCongestion(now time.Duration) bool {
	l.sheds++
	if now < l.nextDecrease {
		return false
	}
	l.nextDecrease = now + l.cfg.Cooldown
	l.limit = math.Max(l.limit*l.cfg.Beta, l.cfg.Min)
	l.decreases++
	return true
}

// RetryBudget is a token pool capping retries relative to successful work:
// each retry spends one token, each success refunds a fraction of one. When
// the pool is dry, retries are denied — failures surface instead of
// amplifying into a synchronized retry storm.
type RetryBudget struct {
	tokens float64
	max    float64
	refund float64
	denied int
}

// NewRetryBudget returns a full pool of max tokens that refunds
// refundPerSuccess tokens per successful completion. A zero or negative max
// yields an always-empty budget (retries disabled).
func NewRetryBudget(max, refundPerSuccess float64) *RetryBudget {
	if max < 0 {
		max = 0
	}
	if refundPerSuccess < 0 {
		refundPerSuccess = 0
	}
	return &RetryBudget{tokens: max, max: max, refund: refundPerSuccess}
}

// Allow consumes one token if available and reports whether the retry may
// proceed.
func (b *RetryBudget) Allow() bool {
	if b.tokens < 1 {
		b.denied++
		return false
	}
	b.tokens--
	return true
}

// OnSuccess refunds a fraction of a token, capped at the pool size.
func (b *RetryBudget) OnSuccess() {
	b.tokens = math.Min(b.tokens+b.refund, b.max)
}

// maxBackoffShift caps exponential growth so the delay cannot overflow.
const maxBackoffShift = 16

// Backoff returns the jittered exponential backoff before retry number
// attempt (0-based): base·2^attempt, scaled by 1 + jitter·(2r−1) where r is
// a caller-supplied uniform [0,1) sample. Passing r from a seeded stream
// (e.g. the fault plane's retry stream) keeps same-seed runs bit-identical
// while still de-synchronizing concurrent retriers within a run.
func Backoff(base time.Duration, attempt int, jitter, r float64) time.Duration {
	if base <= 0 {
		base = time.Millisecond
	}
	if attempt < 0 {
		attempt = 0
	}
	if attempt > maxBackoffShift {
		attempt = maxBackoffShift
	}
	d := float64(base) * math.Pow(2, float64(attempt))
	if jitter > 0 {
		d *= 1 + jitter*(2*r-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// Package overload is the serving stack's overload control plane: the
// mechanisms that keep goodput flat when offered load exceeds the quantum
// budget Olympian planned for (T_j = Q·C_j/D_j only predicts finish times
// while queues are stable).
//
// Four cooperating pieces live here:
//
//   - an AIMD adaptive admission Limiter: each model's concurrency limit
//     grows additively on deadline-met completions and shrinks
//     multiplicatively on shed/expiry signals, so admission tracks the
//     capacity the device actually delivers instead of a static queue cap;
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

// AIMDConfig parameterises an adaptive admission limiter. The zero value
// selects the defaults documented per field.
type AIMDConfig struct {
	// Initial is the starting concurrency limit (default 8).
	Initial float64
	// Min is the limit's floor — admission never closes entirely
	// (default 1).
	Min float64
	// Max is the limit's ceiling (default 256).
	Max float64
	// Add is the additive-increase step: one deadline-met completion grows
	// the limit by Add/limit, i.e. the limit grows by Add per limit's worth
	// of successes — the classic per-round AIMD slope (default 1).
	Add float64
	// Beta is the multiplicative-decrease factor applied on a congestion
	// signal, in (0,1) (default 0.7).
	Beta float64
	// Cooldown is the minimum spacing between multiplicative decreases, so
	// one burst of sheds at a single instant counts as one congestion
	// event, not dozens (default 5ms).
	Cooldown time.Duration
}

// withDefaults fills unset fields.
func (c AIMDConfig) withDefaults() AIMDConfig {
	if c.Initial <= 0 {
		c.Initial = 8
	}
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.Max <= 0 {
		c.Max = 256
	}
	if c.Add <= 0 {
		c.Add = 1
	}
	if c.Beta <= 0 || c.Beta >= 1 {
		c.Beta = 0.7
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Millisecond
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

// Observer receives overload-control events. Implementations live above
// this package (the observability layer adapts them onto its trace
// recorder); keeping the interface here lets the control plane announce
// events without depending on anything beyond the standard library.
// Callbacks run synchronously in simulation context and must not block.
type Observer interface {
	// LimitChanged fires after a multiplicative decrease with the new limit.
	LimitChanged(limit float64)
	// RetryDenied fires when a retry budget refuses a retry.
	RetryDenied()
}

// Limiter is a per-model AIMD concurrency limiter. It is simulation state:
// single-goroutine use only, with time supplied by the caller.
type Limiter struct {
	cfg      AIMDConfig
	limit    float64
	inflight int

	nextDecrease time.Duration

	admitted  int
	sheds     int
	decreases int

	obs Observer
}

// NewLimiter returns a limiter at cfg's initial limit.
func NewLimiter(cfg AIMDConfig) *Limiter {
	cfg = cfg.withDefaults()
	return &Limiter{cfg: cfg, limit: cfg.Initial}
}

// SetObserver registers o to be notified of limit cuts; nil unregisters.
func (l *Limiter) SetObserver(o Observer) { l.obs = o }

// Limit returns the current concurrency limit.
func (l *Limiter) Limit() float64 { return l.limit }

// Admitted returns how many requests were admitted so far.
func (l *Limiter) Admitted() int { return l.admitted }

// Sheds returns how many congestion signals the limiter has absorbed.
func (l *Limiter) Sheds() int { return l.sheds }

// Decreases returns how many multiplicative decreases fired.
func (l *Limiter) Decreases() int { return l.decreases }

// HasCapacityFrac reports whether another request fits under frac of the
// current limit. Admission gives lower priority classes a reduced fraction,
// so the headroom near the limit stays reserved for higher classes and
// shedding starts at the bottom of the priority lattice.
func (l *Limiter) HasCapacityFrac(frac float64) bool {
	return float64(l.inflight) < math.Floor(l.limit*frac)
}

// Acquire admits one request.
func (l *Limiter) Acquire() {
	l.inflight++
	l.admitted++
}

// Release retires one admitted request, whatever its outcome.
func (l *Limiter) Release() {
	if l.inflight > 0 {
		l.inflight--
	}
}

// OnSuccess is the additive-increase signal: a request completed within its
// deadline, so capacity is there to be claimed.
func (l *Limiter) OnSuccess() {
	l.limit = math.Min(l.limit+l.cfg.Add/math.Max(l.limit, 1), l.cfg.Max)
}

// NoteShed records a shed caused by the limiter itself without cutting the
// limit. The limiter refusing work is flow control doing its job, not
// evidence the device is over capacity — feeding its own sheds back as
// congestion would pin the limit at Min for as long as offered load stays
// high, collapsing goodput instead of protecting it.
func (l *Limiter) NoteShed() { l.sheds++ }

// OnCongestion is the multiplicative-decrease signal — a server-side SLO
// failure such as a queue-overflow drop, an in-queue expiry, or a deadline
// miss — at virtual time now. Decreases within the cooldown of the previous
// one are coalesced: the burst still counts in Sheds but cuts the limit
// only once.
func (l *Limiter) OnCongestion(now time.Duration) {
	l.sheds++
	if now < l.nextDecrease {
		return
	}
	l.nextDecrease = now + l.cfg.Cooldown
	l.limit = math.Max(l.limit*l.cfg.Beta, l.cfg.Min)
	l.decreases++
	if l.obs != nil {
		l.obs.LimitChanged(l.limit)
	}
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
	obs    Observer
}

// SetObserver registers o to be notified of denied retries; nil
// unregisters.
func (b *RetryBudget) SetObserver(o Observer) { b.obs = o }

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
		if b.obs != nil {
			b.obs.RetryDenied()
		}
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

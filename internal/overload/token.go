package overload

import (
	"fmt"
	"math"
	"time"
)

// TokenAIMDConfig parameterises a token-rate admission limiter: the LLM
// analogue of AIMDConfig, denominated in tokens instead of requests. A
// generation request's admission cost is its predicted token footprint
// (prompt + expected output), so one long-document request and a dozen chat
// turns charge the gate proportionally. The zero value selects the defaults
// documented per field.
type TokenAIMDConfig struct {
	// Initial is the starting token limit (default 4096).
	Initial float64
	// Min is the limit's floor — admission never closes entirely
	// (default 512).
	Min float64
	// Max is the limit's ceiling (default 262144).
	Max float64
	// Add is the additive-increase step: a deadline-met completion of cost c
	// grows the limit by Add·c/limit, i.e. the limit grows by Add tokens per
	// limit's worth of successful tokens (default 64).
	Add float64
	// Beta is the multiplicative-decrease factor applied on a congestion
	// signal, in (0,1) (default 0.7).
	Beta float64
	// Cooldown is the minimum spacing between multiplicative decreases, so a
	// burst of KV-pressure events at one token boundary counts as one
	// congestion event (default 5ms).
	Cooldown time.Duration
	// BatchFrac is the fraction of the limit visible to the Batch class, so
	// the headroom near the limit stays reserved for interactive work
	// (default 0.8).
	BatchFrac float64
}

// withDefaults fills unset fields.
func (c TokenAIMDConfig) withDefaults() TokenAIMDConfig {
	if c.Initial <= 0 {
		c.Initial = 4096
	}
	if c.Min <= 0 {
		c.Min = 512
	}
	if c.Max <= 0 {
		c.Max = 262144
	}
	if c.Add <= 0 {
		c.Add = 64
	}
	if c.Beta <= 0 || c.Beta >= 1 {
		c.Beta = 0.7
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Millisecond
	}
	if c.BatchFrac <= 0 || c.BatchFrac > 1 {
		c.BatchFrac = 0.8
	}
	return c
}

// Validate rejects nonsensical explicit settings.
func (c TokenAIMDConfig) Validate() error {
	if c.Initial < 0 || c.Min < 0 || c.Max < 0 || c.Add < 0 {
		return fmt.Errorf("overload: negative token-AIMD parameter (initial=%v min=%v max=%v add=%v)",
			c.Initial, c.Min, c.Max, c.Add)
	}
	if c.Beta < 0 || c.Beta >= 1 {
		return fmt.Errorf("overload: token-AIMD beta %v outside [0,1)", c.Beta)
	}
	if c.Min > 0 && c.Max > 0 && c.Min > c.Max {
		return fmt.Errorf("overload: token-AIMD min %v above max %v", c.Min, c.Max)
	}
	if c.Cooldown < 0 {
		return fmt.Errorf("overload: negative token-AIMD cooldown %v", c.Cooldown)
	}
	if c.BatchFrac < 0 || c.BatchFrac > 1 {
		return fmt.Errorf("overload: token-AIMD batch fraction %v outside [0,1]", c.BatchFrac)
	}
	return nil
}

// frac is the capacity fraction a class may fill.
func (c TokenAIMDConfig) frac(class Class) float64 {
	if class >= Interactive {
		return 1
	}
	return c.BatchFrac
}

// TokenLimiter is a token-rate AIMD admission limiter for autoregressive
// serving. It tracks in-flight predicted token cost against an adaptive
// token limit; the congestion signal is KV-cache pressure (preemptions,
// recomputes, utilization above a watermark) rather than the limiter's own
// sheds, so admission backs off before the device livelocks on recompute
// thrash but never strangles itself. Simulation state: single-goroutine use
// only, with time supplied by the caller.
type TokenLimiter struct {
	cfg      TokenAIMDConfig
	limit    float64
	inflight int // admitted-and-unfinished predicted tokens

	nextDecrease time.Duration

	admitted  int
	sheds     int
	decreases int
}

// NewTokenLimiter returns a limiter at cfg's initial token limit.
func NewTokenLimiter(cfg TokenAIMDConfig) *TokenLimiter {
	cfg = cfg.withDefaults()
	return &TokenLimiter{cfg: cfg, limit: cfg.Initial}
}

// Limit returns the current token limit.
func (l *TokenLimiter) Limit() float64 { return l.limit }

// HasCapacity reports whether a request of the given predicted token cost
// fits under the class's fraction of the current limit. An idle limiter
// always admits: a lone request larger than the floor must run, not
// livelock at a gate nothing else is holding.
func (l *TokenLimiter) HasCapacity(class Class, cost int) bool {
	if cost < 0 {
		cost = 0
	}
	if l.inflight == 0 {
		return true
	}
	return float64(l.inflight+cost) <= math.Floor(l.limit*l.cfg.frac(class))
}

// Acquire admits one request of the given predicted token cost.
func (l *TokenLimiter) Acquire(cost int) {
	if cost < 0 {
		cost = 0
	}
	l.inflight += cost
	l.admitted++
}

// Release retires an admitted request's token cost, whatever its outcome.
func (l *TokenLimiter) Release(cost int) {
	if cost < 0 {
		cost = 0
	}
	l.inflight -= cost
	if l.inflight < 0 {
		l.inflight = 0
	}
}

// OnSuccess is the additive-increase signal: a request of the given cost
// completed within its deadlines, so token capacity is there to be claimed.
func (l *TokenLimiter) OnSuccess(cost int) {
	if cost <= 0 {
		return
	}
	l.limit = math.Min(l.limit+l.cfg.Add*float64(cost)/math.Max(l.limit, 1), l.cfg.Max)
}

// NoteShed records a shed caused by the limiter itself without cutting the
// limit — the same self-shed/congestion split as Limiter.NoteShed.
func (l *TokenLimiter) NoteShed() { l.sheds++ }

// OnCongestion is the multiplicative-decrease signal — KV-cache pressure
// (a preemption/recompute event, utilization above the watermark) or a
// server-side SLO failure (a TTFT expiry) — at virtual time now. Decreases
// within the cooldown of the previous one are coalesced.
func (l *TokenLimiter) OnCongestion(now time.Duration) {
	l.sheds++
	if now < l.nextDecrease {
		return
	}
	l.nextDecrease = now + l.cfg.Cooldown
	l.limit = math.Max(l.limit*l.cfg.Beta, l.cfg.Min)
	l.decreases++
}

// Package telemetry is the virtual-time observability plane: a sampler that
// scrapes an obs.Registry every Δt of *simulated* time into fixed-capacity
// ring-buffer time series, deterministic merging of per-shard series into one
// fleet timeline, windowed queries (rate, delta, quantile-over-window), and a
// multi-window multi-burn-rate SLO alert evaluator in the Google SRE style.
//
// Everything here is deterministic: the sampler rides the simulation kernel's
// heartbeat hook (sim.Env.Heartbeat), which fires at fixed virtual-time
// boundaries without occupying the event queue, so enabling sampling cannot
// perturb event order, randomness, or results. For a given seed the merged
// timeline, alert log, and rendered JSON are byte-identical between the
// single-heap and sharded engines.
package telemetry

import (
	"time"

	"olympian/internal/sim"
)

// DefaultInterval is the simulated time between scrapes when Config.Interval
// is zero.
const DefaultInterval = 5 * time.Millisecond

// DefaultCapacity is the ring capacity in ticks when Config.Capacity is
// zero: memory per series is bounded by it no matter how long the run is.
const DefaultCapacity = 1024

// Config parameterizes a telemetry plane: the scrape cadence, the ring
// capacity, and the SLOs with their burn-rate alerting rules.
type Config struct {
	// Interval is the simulated time between registry scrapes (default
	// DefaultInterval). Tick k covers virtual time (k+1)·Interval.
	Interval sim.Duration
	// Capacity bounds each ring-buffer series to this many ticks (default
	// DefaultCapacity); older ticks are evicted.
	Capacity int
	// SLOs are the service-level objectives to evaluate over the merged
	// timeline; Rules are the burn-rate alert rules applied to each of them.
	SLOs  []SLO
	Rules []BurnRule
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.Capacity <= 0 {
		c.Capacity = DefaultCapacity
	}
	return c
}

// SLO is one service-level objective. Exactly one source shape applies:
//
//   - Latency threshold: Hist names a histogram family; an observation is
//     good when ≤ Threshold seconds. All series of the family (across
//     devices and shards) aggregate into one fleet-level SLI.
//   - Counter ratio: Good and Bad name counter families; the SLI is
//     good/(good+bad) over the window, again summed across all series.
//
// Objective is the target good fraction (e.g. 0.999); the error budget is
// 1-Objective and burn rate is errorFraction/errorBudget.
type SLO struct {
	Name      string
	Hist      string
	Threshold float64
	Good      string
	Bad       string
	Objective float64
}

// BurnRule is one multi-window burn-rate alert rule: it fires when the burn
// rate over both the Long and Short windows is at least Factor. The short
// window makes alerts resolve quickly once the burn stops; the long window
// keeps a brief blip from paging (Google SRE workbook, ch. 5 — scaled to
// simulated time).
type BurnRule struct {
	Name   string
	Long   sim.Duration
	Short  sim.Duration
	Factor float64
}

// DefaultRules are fast/slow burn rules scaled to simulated-serving time
// horizons (tens of milliseconds to seconds).
func DefaultRules() []BurnRule {
	return []BurnRule{
		{Name: "fast", Long: 250 * time.Millisecond, Short: 50 * time.Millisecond, Factor: 10},
		{Name: "slow", Long: 1 * time.Second, Short: 250 * time.Millisecond, Factor: 2},
	}
}

// DefaultServingSLOs are the latency objectives the CLIs attach when
// telemetry is enabled without an explicit SLO set: request latency and queue
// delay over the serving plane's source histograms, plus TTFT over the LLM
// plane's (families absent from a run simply contribute no events). The
// thresholds sit well under the serving layer's 120ms default deadline, so a
// fleet pushed past saturation burns its error budget and the burn-rate
// rules fire on the virtual timeline.
func DefaultServingSLOs() []SLO {
	return []SLO{
		{Name: "request-latency", Hist: "olympian_serving_request_latency_seconds", Threshold: 0.050, Objective: 0.99},
		{Name: "queue-delay", Hist: "olympian_serving_queue_delay_seconds", Threshold: 0.020, Objective: 0.95},
		{Name: "ttft", Hist: "olympian_llm_ttft_seconds", Threshold: 0.200, Objective: 0.99},
	}
}

// Alert is one deterministic alert transition on the virtual timeline.
type Alert struct {
	// AtNs is the tick's virtual timestamp in nanoseconds.
	AtNs int64 `json:"at_ns"`
	// SLO and Rule identify the objective and the burn rule.
	SLO  string `json:"slo"`
	Rule string `json:"rule"`
	// State is "firing" on the rising edge, "resolved" on the falling edge.
	State string `json:"state"`
	// Burn is the long-window burn rate at the transition tick.
	Burn float64 `json:"burn"`
}

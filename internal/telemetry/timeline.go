package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"olympian/internal/obs"
	"olympian/internal/sim"
)

// tlScalar is one merged scalar series over the retained tick window.
type tlScalar struct {
	name    string
	counter bool
	vals    []float64 // index 0 = tick Start
}

// tlHist is one merged histogram series: the rings of every shard that
// holds it, in sampler order. Merge consumed those samplers, so the rings
// never change again and histAt sums them where they sit.
type tlHist struct {
	name  string
	rings []*histRing
}

// Timeline is the merged, query-ready view of one run's telemetry: per-tick
// series over the retained window, plus the alert log produced by Evaluate.
// All state is a pure function of the samplers' rings, so equal runs yield
// byte-identical WriteJSON output.
type Timeline struct {
	// Interval is the scrape cadence; tick k covers virtual time
	// (k+1)·Interval.
	Interval sim.Duration
	// Ticks is the total tick count since virtual time zero; Start is the
	// first retained tick (later than zero once rings evicted).
	Ticks int
	Start int
	// Alerts is the deterministic alert log, filled by Evaluate.
	Alerts []Alert

	scalars map[string]*tlScalar // key "name{labels}"
	hists   map[string]*tlHist
	// scalarOrder/histOrder are the sorted key lists: every aggregation
	// (SLO sums in particular) iterates these so float accumulation order —
	// and therefore the output bytes — never depends on map order.
	scalarOrder []string
	histOrder   []string
	burns       map[string][]float64 // "slo/rule" → long-window burn per tick
	traceOff    sim.Time             // recorder base captured by LogAlerts
}

// Merge folds per-shard samplers into one fleet timeline and evaluates the
// configured SLO burn-rate rules. Every sampler is first extended to the
// global tick count (see Sampler.FinishTo), then, per tick: counters sum
// across shards, a gauge takes the last shard (in slice order) that touched
// it — the same rule Registry.Absorb applies — and histogram snapshots add
// exactly. Nil samplers are skipped; with none, an empty timeline returns.
//
// Merge consumes its samplers, the way obs.Recorder.Merge consumes its
// children: the timeline reads their histogram rings in place, so a sampler
// must not scrape (or be extended) after it has been merged.
func Merge(cfg Config, samplers []*Sampler) *Timeline {
	cfg = cfg.withDefaults()
	tl := &Timeline{
		Interval: cfg.Interval,
		scalars:  make(map[string]*tlScalar),
		hists:    make(map[string]*tlHist),
		burns:    make(map[string][]float64),
	}
	live := samplers[:0:0]
	for _, s := range samplers {
		if s != nil {
			live = append(live, s)
		}
	}
	for _, s := range live {
		if s.ticks > tl.Ticks {
			tl.Ticks = s.ticks
		}
	}
	if tl.Ticks > cfg.Capacity {
		tl.Start = tl.Ticks - cfg.Capacity
	}
	for _, s := range live {
		s.FinishTo(tl.Ticks)
	}
	n := tl.Ticks - tl.Start
	for _, s := range live {
		for _, r := range s.scalars {
			key := r.name + r.labels
			m := tl.scalars[key]
			if m == nil {
				m = &tlScalar{name: r.name, counter: r.counter, vals: make([]float64, n)}
				tl.scalars[key] = m
			}
			for t := tl.Start; t < tl.Ticks; t++ {
				p, ok := r.at(t)
				if !ok {
					continue
				}
				if m.counter {
					m.vals[t-tl.Start] += p.v
				} else if p.touched {
					m.vals[t-tl.Start] = p.v
				}
			}
		}
		for _, r := range s.hists {
			key := r.name + r.labels
			m := tl.hists[key]
			if m == nil {
				m = &tlHist{name: r.name}
				tl.hists[key] = m
			}
			m.rings = append(m.rings, r)
		}
	}
	for k := range tl.scalars {
		tl.scalarOrder = append(tl.scalarOrder, k)
	}
	sort.Strings(tl.scalarOrder)
	for k := range tl.hists {
		tl.histOrder = append(tl.histOrder, k)
	}
	sort.Strings(tl.histOrder)
	tl.Evaluate(cfg.SLOs, cfg.Rules)
	return tl
}

// TickTime is the virtual timestamp of tick k.
func (tl *Timeline) TickTime(k int) sim.Time {
	return sim.Time(k+1) * sim.Time(tl.Interval)
}

// windowTicks converts a duration to a tick count, at least 1.
func (tl *Timeline) windowTicks(d sim.Duration) int {
	w := int(sim.Time(d) / sim.Time(tl.Interval))
	if w < 1 {
		w = 1
	}
	return w
}

// valueAt returns a merged scalar's value at absolute tick t (0 outside the
// retained window).
func (s *tlScalar) valueAt(tl *Timeline, t int) float64 {
	if t < tl.Start || t >= tl.Ticks {
		return 0
	}
	return s.vals[t-tl.Start]
}

// histAt returns a merged histogram's cumulative snapshot at absolute tick
// t: the sum of its shard rings' snapshots (zero before the retained
// window, the last tick past it).
func (tl *Timeline) histAt(h *tlHist, t int) histSnap {
	var sum histSnap
	if t < tl.Start {
		return sum
	}
	if t >= tl.Ticks {
		t = tl.Ticks - 1
	}
	for _, r := range h.rings {
		if snap, ok := r.at(t); ok {
			sum = sum.add(snap)
		}
	}
	return sum
}

// sloCount is an SLO's cumulative (good, total) event count at one tick.
type sloCount struct{ good, total float64 }

// sloCounts returns the (good, total) cumulative event counts of an SLO's
// SLI at tick t, aggregated across every series of the source family.
func (tl *Timeline) sloCounts(slo SLO, t int) (c sloCount) {
	if slo.Hist != "" {
		// Integer accumulation: exact and order-independent.
		var g, n uint64
		for _, k := range tl.histOrder {
			h := tl.hists[k]
			if h.name != slo.Hist {
				continue
			}
			snap := tl.histAt(h, t)
			g += obs.HistCountLE(snap.buckets, slo.Threshold)
			n += snap.count()
		}
		return sloCount{float64(g), float64(n)}
	}
	for _, k := range tl.scalarOrder {
		s := tl.scalars[k]
		if s.name == slo.Good {
			c.good += s.valueAt(tl, t)
			c.total += s.valueAt(tl, t)
		} else if s.name == slo.Bad {
			c.total += s.valueAt(tl, t)
		}
	}
	return c
}

// burnAt computes the SLO's burn rate over the window of w ticks ending at
// tick t from its per-tick counts (indexed from Start; earlier ticks count
// zero): error fraction divided by error budget. An empty window burns 0.
func (tl *Timeline) burnAt(slo SLO, counts []sloCount, w, t int) float64 {
	c1 := counts[t-tl.Start]
	var c0 sloCount
	if t-w >= tl.Start {
		c0 = counts[t-w-tl.Start]
	}
	good, total := c1.good-c0.good, c1.total-c0.total
	if total <= 0 {
		return 0
	}
	budget := 1 - slo.Objective
	if budget <= 0 {
		budget = 1e-9
	}
	return (1 - good/total) / budget
}

// Evaluate runs every (SLO, rule) pair over the retained window and records
// the alert transitions: a rule fires at the first tick where both the long-
// and short-window burn rates reach its factor, and resolves at the first
// tick where either drops below. Iteration is in slice order and ticks
// ascend, so the log is deterministic. Each SLO's cumulative counts are
// computed once per retained tick and shared by every rule and window.
// Also called by Merge; callable again with different rules (the alert log
// resets).
func (tl *Timeline) Evaluate(slos []SLO, rules []BurnRule) {
	tl.Alerts = nil
	tl.burns = make(map[string][]float64)
	counts := make([]sloCount, tl.Ticks-tl.Start)
	for _, slo := range slos {
		for t := tl.Start; t < tl.Ticks; t++ {
			counts[t-tl.Start] = tl.sloCounts(slo, t)
		}
		for _, rule := range rules {
			long := tl.windowTicks(rule.Long)
			short := tl.windowTicks(rule.Short)
			burns := make([]float64, tl.Ticks-tl.Start)
			firing := false
			for t := tl.Start; t < tl.Ticks; t++ {
				lb := tl.burnAt(slo, counts, long, t)
				burns[t-tl.Start] = lb
				on := lb >= rule.Factor && tl.burnAt(slo, counts, short, t) >= rule.Factor
				if on != firing {
					firing = on
					state := "resolved"
					if on {
						state = "firing"
					}
					tl.Alerts = append(tl.Alerts, Alert{
						AtNs:  int64(tl.TickTime(t)),
						SLO:   slo.Name,
						Rule:  rule.Name,
						State: state,
						Burn:  lb,
					})
				}
			}
			tl.burns[slo.Name+"/"+rule.Name] = burns
		}
	}
}

// Burns returns the per-tick long-window burn-rate series for "slo/rule"
// keys, aligned at Start. The serve CLI exposes the final values as gauges.
func (tl *Timeline) Burns() map[string][]float64 { return tl.burns }

// LogAlerts records every alert as an obs instant at its virtual timestamp,
// so alert transitions land on the lifecycle trace's telemetry track next to
// the spans that caused them. It also captures the recorder's current time
// base (see TraceOffset) so counter tracks rendered from this timeline
// overlay the same trace interval. No-op when rec is nil.
func (tl *Timeline) LogAlerts(rec *obs.Recorder) {
	tl.traceOff = rec.Base()
	for _, a := range tl.Alerts {
		rec.InstantAt(obs.LayerTelemetry, fmt.Sprintf("slo:%s/%s %s", a.SLO, a.Rule, a.State),
			obs.NoReq, obs.NoClass, obs.NoDevice, sim.Time(a.AtNs), int64(a.Burn*1000))
	}
}

// TraceOffset is the trace time-base offset of the run these alerts were
// logged under (zero until LogAlerts runs). trace.WriteLifecycleTimeline
// shifts counter-track timestamps by it so they align with the run's spans
// when one recorder holds several sequential runs.
func (tl *Timeline) TraceOffset() sim.Time { return tl.traceOff }

// seriesJSON / histJSON / timelineJSON are the stable dump shape. Maps keyed
// by series name render with sorted keys (encoding/json sorts map keys), so
// equal timelines marshal byte-identically.
type seriesJSON struct {
	Kind   string    `json:"kind"`
	Values []float64 `json:"values"`
}

type histJSON struct {
	Count []uint64  `json:"count"`
	P50   []float64 `json:"p50"`
	P95   []float64 `json:"p95"`
	P99   []float64 `json:"p99"`
	SumNs []int64   `json:"sum_ns"`
}

type timelineJSON struct {
	IntervalNs int64                 `json:"interval_ns"`
	Ticks      int                   `json:"ticks"`
	Start      int                   `json:"start"`
	Series     map[string]seriesJSON `json:"series"`
	Hists      map[string]histJSON   `json:"hists"`
	Burns      map[string][]float64  `json:"burns"`
	Alerts     []Alert               `json:"alerts"`
}

// WriteJSON renders the timeline deterministically: fixed field order,
// sorted series keys, and integer nanosecond sums, so same-seed runs dump
// byte-identical files on either engine. Histograms emit per-tick cumulative
// count/sum plus running p50/p95/p99 (counter-track-friendly); raw buckets
// stay in memory only.
func (tl *Timeline) WriteJSON(w io.Writer) error {
	out := timelineJSON{
		IntervalNs: int64(tl.Interval),
		Ticks:      tl.Ticks,
		Start:      tl.Start,
		Series:     make(map[string]seriesJSON, len(tl.scalars)),
		Hists:      make(map[string]histJSON, len(tl.hists)),
		Burns:      tl.burns,
		Alerts:     tl.Alerts,
	}
	if out.Alerts == nil {
		out.Alerts = []Alert{}
	}
	for k, s := range tl.scalars {
		kind := "gauge"
		if s.counter {
			kind = "counter"
		}
		out.Series[k] = seriesJSON{Kind: kind, Values: s.vals}
	}
	n := tl.Ticks - tl.Start
	for k, h := range tl.hists {
		hj := histJSON{
			Count: make([]uint64, n),
			SumNs: make([]int64, n),
			P50:   make([]float64, n),
			P95:   make([]float64, n),
			P99:   make([]float64, n),
		}
		for i := range n {
			snap := tl.histAt(h, tl.Start+i)
			hj.Count[i] = snap.count()
			hj.SumNs[i] = snap.sumNs
			hj.P50[i] = obs.QuantileOfBuckets(snap.buckets, 0.50)
			hj.P95[i] = obs.QuantileOfBuckets(snap.buckets, 0.95)
			hj.P99[i] = obs.QuantileOfBuckets(snap.buckets, 0.99)
		}
		out.Hists[k] = hj
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

package telemetry

import (
	"strings"
	"testing"
	"time"

	"olympian/internal/obs"
	"olympian/internal/sim"
)

// runWorkload drives a toy workload on env: a counter bumped per event, a
// gauge tracking depth, and a latency histogram whose samples degrade over
// time (so a latency SLO starts burning mid-run).
func runWorkload(env *sim.Env, reg *obs.Registry) {
	c := reg.Counter("toy_requests_total", "requests")
	g := reg.Gauge("toy_depth", "queue depth")
	h := reg.Histogram("toy_latency_seconds", "latency")
	for i := 0; i < 200; i++ {
		i := i
		env.ScheduleAt(sim.Time(i)*sim.Time(time.Millisecond), func() {
			c.Inc()
			g.Set(float64(i % 7))
			// First half fast (1ms), second half slow (80ms): the 10ms SLO
			// starts failing at t=100ms.
			if i < 100 {
				h.Observe(time.Millisecond)
			} else {
				h.Observe(80 * time.Millisecond)
			}
		})
	}
}

func toyConfig() Config {
	return Config{
		Interval: 5 * time.Millisecond,
		Capacity: 64,
		SLOs: []SLO{{
			Name: "latency", Hist: "toy_latency_seconds",
			Threshold: 0.010, Objective: 0.99,
		}},
		Rules: []BurnRule{{Name: "fast", Long: 50 * time.Millisecond, Short: 10 * time.Millisecond, Factor: 10}},
	}
}

// histDelta is a merged histogram's snapshot difference over the w ticks
// ending at tick at: the bucket counts a windowed quantile reads.
func (tl *Timeline) histDelta(h *tlHist, w, at int) histSnap {
	s, o := tl.histAt(h, at), tl.histAt(h, at-w)
	for i := range s.buckets {
		s.buckets[i] -= o.buckets[i]
	}
	s.sumNs -= o.sumNs
	return s
}

// TestSamplerScrapesOnVirtualClock checks tick cadence and windowed queries.
func TestSamplerScrapesOnVirtualClock(t *testing.T) {
	env := sim.NewEnv(1)
	reg := obs.NewRegistry()
	cfg := toyConfig()
	s := NewSampler(cfg, reg)
	s.Bind(env)
	runWorkload(env, reg)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Events at 0..199ms; boundaries every 5ms strictly below the last
	// popped event: 5..195ms = 39 ticks.
	if s.Ticks() != 39 {
		t.Fatalf("ticks = %d, want 39", s.Ticks())
	}
	tl := Merge(cfg, []*Sampler{s})
	last := tl.Ticks - 1
	// Counter rate over the full retained window ≈ 1000 events/s (one per ms).
	c := tl.scalars["toy_requests_total"]
	rate := (c.valueAt(tl, last) - c.valueAt(tl, last-tl.windowTicks(100*time.Millisecond))) / 0.1
	if rate < 900 || rate > 1100 {
		t.Fatalf("rate = %v, want ≈1000", rate)
	}
	// Windowed quantile over the slow tail sees ~80ms.
	d := tl.histDelta(tl.hists["toy_latency_seconds"], tl.windowTicks(50*time.Millisecond), last)
	p99 := obs.QuantileOfBuckets(d.buckets, 0.99)
	if p99 < 0.06 || p99 > 0.1 {
		t.Fatalf("windowed p99 = %v, want ≈0.08", p99)
	}
}

// TestAlertsFireAndResolve checks the burn-rate evaluator's edge semantics.
func TestAlertsFireAndResolve(t *testing.T) {
	env := sim.NewEnv(1)
	reg := obs.NewRegistry()
	cfg := toyConfig()
	s := NewSampler(cfg, reg)
	s.Bind(env)
	runWorkload(env, reg)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	tl := Merge(cfg, []*Sampler{s})
	if len(tl.Alerts) == 0 {
		t.Fatal("no alerts fired despite a 100% burn phase")
	}
	first := tl.Alerts[0]
	if first.State != "firing" || first.SLO != "latency" || first.Rule != "fast" {
		t.Fatalf("unexpected first alert %+v", first)
	}
	// The burn starts at 100ms; the alert must land after that, on a tick.
	if first.AtNs < int64(100*time.Millisecond) || first.AtNs%int64(cfg.Interval) != 0 {
		t.Fatalf("alert at %dns, want a tick boundary ≥ 100ms", first.AtNs)
	}
	for i := 1; i < len(tl.Alerts); i++ {
		if tl.Alerts[i].State == tl.Alerts[i-1].State && tl.Alerts[i].SLO == tl.Alerts[i-1].SLO && tl.Alerts[i].Rule == tl.Alerts[i-1].Rule {
			t.Fatalf("non-alternating alert states: %+v", tl.Alerts)
		}
	}
}

// TestMergeMatchesSharedRecorder checks the per-shard merge invariant: two
// samplers over two child registries, merged, must dump byte-identical JSON
// to one sampler over a single registry that saw all the same observations —
// including a child whose histogram appears mid-run.
func TestMergeMatchesSharedRecorder(t *testing.T) {
	cfg := toyConfig()

	runSplit := func() *Timeline {
		env := sim.NewEnv(7)
		regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
		ss := []*Sampler{NewSampler(cfg, regs[0]), NewSampler(cfg, regs[1])}
		ss[0].Bind(env)
		ss[1].Bind(env)
		for part := 0; part < 2; part++ {
			part := part
			c := regs[part].Counter("toy_requests_total", "requests", "shard", []string{"a", "b"}[part])
			h := regs[part].Histogram("toy_latency_seconds", "latency")
			for i := part * 100; i < part*100+100; i++ {
				i := i
				env.ScheduleAt(sim.Time(i)*sim.Time(time.Millisecond), func() {
					c.Inc()
					h.Observe(time.Duration(1+i%5) * time.Millisecond)
				})
			}
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return Merge(cfg, ss)
	}
	runShared := func() *Timeline {
		env := sim.NewEnv(7)
		reg := obs.NewRegistry()
		s := NewSampler(cfg, reg)
		s.Bind(env)
		for part := 0; part < 2; part++ {
			c := reg.Counter("toy_requests_total", "requests", "shard", []string{"a", "b"}[part])
			h := reg.Histogram("toy_latency_seconds", "latency")
			for i := part * 100; i < part*100+100; i++ {
				i := i
				env.ScheduleAt(sim.Time(i)*sim.Time(time.Millisecond), func() {
					c.Inc()
					h.Observe(time.Duration(1+i%5) * time.Millisecond)
				})
			}
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return Merge(cfg, []*Sampler{s})
	}

	var a, b strings.Builder
	if err := runSplit().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := runShared().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("split-merge JSON differs from shared:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestFinishToExtendsWithFinalState checks the sharded-engine trailing-tick
// fix: a sampler whose env went quiet early extends with its registry's
// final state, not its last scraped value.
func TestFinishToExtendsWithFinalState(t *testing.T) {
	env := sim.NewEnv(1)
	reg := obs.NewRegistry()
	cfg := toyConfig()
	s := NewSampler(cfg, reg)
	s.Bind(env)
	c := reg.Counter("toy_requests_total", "requests")
	// Events at 1ms and 7ms: only the 5ms boundary fires (no event past
	// 10ms), with value 1; the 7ms bump lands after the last scrape.
	env.ScheduleAt(sim.Time(1*time.Millisecond), func() { c.Inc() })
	env.ScheduleAt(sim.Time(7*time.Millisecond), func() { c.Inc() })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Ticks() != 1 {
		t.Fatalf("ticks = %d, want 1", s.Ticks())
	}
	s.FinishTo(3)
	tl := Merge(cfg, []*Sampler{s})
	vals := tl.scalars["toy_requests_total"].vals
	want := []float64{1, 2, 2}
	if len(vals) != len(want) {
		t.Fatalf("vals = %v, want %v", vals, want)
	}
	for i := range vals {
		if vals[i] != want[i] {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
}

// TestRingEviction checks capacity bounds: only the last Capacity ticks are
// retained and queries clamp to the window.
func TestRingEviction(t *testing.T) {
	cfg := toyConfig()
	cfg.Capacity = 8
	env := sim.NewEnv(1)
	reg := obs.NewRegistry()
	s := NewSampler(cfg, reg)
	s.Bind(env)
	runWorkload(env, reg)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	tl := Merge(cfg, []*Sampler{s})
	if tl.Ticks-tl.Start != 8 {
		t.Fatalf("retained %d ticks, want 8", tl.Ticks-tl.Start)
	}
	if got := len(tl.scalars["toy_requests_total"].vals); got != 8 {
		t.Fatalf("series length %d, want 8", got)
	}
}

// TestNilSamplerDisabled checks the disabled plane is inert.
func TestNilSamplerDisabled(t *testing.T) {
	var s *Sampler
	env := sim.NewEnv(1)
	s.Bind(env)
	s.Scrape()
	s.FinishTo(5)
	if s.Ticks() != 0 {
		t.Fatal("nil sampler ticked")
	}
	if got := NewSampler(Config{}, nil); got != nil {
		t.Fatal("NewSampler(nil registry) must return nil")
	}
	tl := Merge(Config{}, []*Sampler{nil, nil})
	if tl.Ticks != 0 || len(tl.Alerts) != 0 {
		t.Fatal("merging nil samplers must yield an empty timeline")
	}
}

// BenchmarkTelemetryDisabled measures the per-event cost of the telemetry
// plane when it is off: an environment with no heartbeats registered pays
// one branch per pop and the nil sampler is a no-op. Must stay 0 allocs/op.
func BenchmarkTelemetryDisabled(b *testing.B) {
	env := sim.NewEnv(1)
	var s *Sampler
	s.Bind(env) // nil: registers nothing
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			env.Schedule(sim.Duration(time.Microsecond), tick)
		}
	}
	env.Schedule(sim.Duration(time.Microsecond), tick)
	b.ReportAllocs()
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

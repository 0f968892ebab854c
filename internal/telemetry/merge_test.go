package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"
	"time"

	"olympian/internal/obs"
	"olympian/internal/sim"
)

// refTimeline is the copying fold Merge made before it read shard rings in
// place: every merged series' per-tick values summed into fresh slices, and
// each burn rate computed from SLO counts summed afresh at both ends of
// every window.
type refTimeline struct {
	interval     sim.Duration
	ticks, start int
	scalars      map[string]*tlScalar
	hists        map[string]*refHist
	alerts       []Alert
	burns        map[string][]float64
}

type refHist struct {
	name  string
	snaps []histSnap // index 0 = tick start
}

func refMerge(cfg Config, samplers []*Sampler) *refTimeline {
	cfg = cfg.withDefaults()
	rt := &refTimeline{interval: cfg.Interval, scalars: map[string]*tlScalar{}, hists: map[string]*refHist{}}
	for _, s := range samplers {
		if s != nil {
			rt.ticks = max(rt.ticks, s.ticks)
		}
	}
	rt.start = max(0, rt.ticks-cfg.Capacity)
	n := rt.ticks - rt.start
	for _, s := range samplers {
		if s == nil {
			continue
		}
		s.FinishTo(rt.ticks)
		for _, r := range s.scalars {
			m := rt.scalars[r.name+r.labels]
			if m == nil {
				m = &tlScalar{name: r.name, counter: r.counter, vals: make([]float64, n)}
				rt.scalars[r.name+r.labels] = m
			}
			for t := rt.start; t < rt.ticks; t++ {
				if p, ok := r.at(t); ok && m.counter {
					m.vals[t-rt.start] += p.v
				} else if ok && p.touched {
					m.vals[t-rt.start] = p.v
				}
			}
		}
		for _, r := range s.hists {
			m := rt.hists[r.name+r.labels]
			if m == nil {
				m = &refHist{name: r.name, snaps: make([]histSnap, n)}
				rt.hists[r.name+r.labels] = m
			}
			for t := rt.start; t < rt.ticks; t++ {
				if snap, ok := r.at(t); ok {
					m.snaps[t-rt.start] = m.snaps[t-rt.start].add(snap)
				}
			}
		}
	}
	rt.evaluate(cfg.SLOs, cfg.Rules)
	return rt
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (rt *refTimeline) sloCounts(slo SLO, t int) (good, total float64) {
	if slo.Hist != "" {
		var g, n uint64
		for _, k := range sortedKeys(rt.hists) {
			h := rt.hists[k]
			if h.name != slo.Hist || t < rt.start {
				continue
			}
			snap := h.snaps[min(t, rt.ticks-1)-rt.start]
			g += obs.HistCountLE(snap.buckets, slo.Threshold)
			n += snap.count()
		}
		return float64(g), float64(n)
	}
	for _, k := range sortedKeys(rt.scalars) {
		s := rt.scalars[k]
		v := 0.0
		if t >= rt.start && t < rt.ticks {
			v = s.vals[t-rt.start]
		}
		if s.name == slo.Good {
			good += v
			total += v
		} else if s.name == slo.Bad {
			total += v
		}
	}
	return good, total
}

func (rt *refTimeline) burnAt(slo SLO, w, t int) float64 {
	g1, n1 := rt.sloCounts(slo, t)
	g0, n0 := rt.sloCounts(slo, t-w)
	good, total := g1-g0, n1-n0
	if total <= 0 {
		return 0
	}
	budget := 1 - slo.Objective
	if budget <= 0 {
		budget = 1e-9
	}
	return (1 - good/total) / budget
}

func (rt *refTimeline) evaluate(slos []SLO, rules []BurnRule) {
	rt.burns = map[string][]float64{}
	tl := &Timeline{Interval: rt.interval}
	for _, slo := range slos {
		for _, rule := range rules {
			long, short := tl.windowTicks(rule.Long), tl.windowTicks(rule.Short)
			burns := make([]float64, rt.ticks-rt.start)
			firing := false
			for t := rt.start; t < rt.ticks; t++ {
				lb := rt.burnAt(slo, long, t)
				burns[t-rt.start] = lb
				if on := lb >= rule.Factor && rt.burnAt(slo, short, t) >= rule.Factor; on != firing {
					firing = on
					state := "resolved"
					if on {
						state = "firing"
					}
					rt.alerts = append(rt.alerts, Alert{AtNs: int64(tl.TickTime(t)), SLO: slo.Name, Rule: rule.Name, State: state, Burn: lb})
				}
			}
			rt.burns[slo.Name+"/"+rule.Name] = burns
		}
	}
}

func (rt *refTimeline) writeJSON() []byte {
	out := timelineJSON{
		IntervalNs: int64(rt.interval), Ticks: rt.ticks, Start: rt.start,
		Series: map[string]seriesJSON{}, Hists: map[string]histJSON{},
		Burns: rt.burns, Alerts: rt.alerts,
	}
	if out.Alerts == nil {
		out.Alerts = []Alert{}
	}
	for k, s := range rt.scalars {
		kind := "gauge"
		if s.counter {
			kind = "counter"
		}
		out.Series[k] = seriesJSON{Kind: kind, Values: s.vals}
	}
	for k, h := range rt.hists {
		var hj histJSON
		for _, snap := range h.snaps {
			hj.Count = append(hj.Count, snap.count())
			hj.SumNs = append(hj.SumNs, snap.sumNs)
			hj.P50 = append(hj.P50, obs.QuantileOfBuckets(snap.buckets, 0.50))
			hj.P95 = append(hj.P95, obs.QuantileOfBuckets(snap.buckets, 0.95))
			hj.P99 = append(hj.P99, obs.QuantileOfBuckets(snap.buckets, 0.99))
		}
		out.Hists[k] = hj
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// shardSamplers runs a two-shard toy fleet, each shard on its own env with
// its own registry and sampler, and returns the samplers unmerged. Both
// shards record the same latency histogram key; shard a also records a
// per-device histogram that first appears mid-run, and good/bad counters
// and a gauge on both. Shard b's events end at 89ms, so its sampler stops
// ticking early and Merge must extend it with FinishTo.
func shardSamplers(t *testing.T, cfg Config) []*Sampler {
	t.Helper()
	var ss []*Sampler
	for shard, end := range []int{200, 90} {
		env := sim.NewEnv(int64(shard + 1))
		reg := obs.NewRegistry()
		s := NewSampler(cfg, reg)
		s.Bind(env)
		ss = append(ss, s)
		good := reg.Counter("toy_good_total", "good", "shard", []string{"a", "b"}[shard])
		bad := reg.Counter("toy_bad_total", "bad", "shard", []string{"a", "b"}[shard])
		depth := reg.Gauge("toy_depth", "depth")
		lat := reg.Histogram("toy_latency_seconds", "latency")
		for i := 0; i < end; i++ {
			env.ScheduleAt(sim.Time(i)*sim.Time(time.Millisecond), func() {
				d := time.Duration(1+(i*(shard+3))%7) * time.Millisecond
				if i > 60+40*shard && i%3 != 0 {
					d = 80 * time.Millisecond
				}
				lat.Observe(d)
				if d > 10*time.Millisecond {
					bad.Inc()
				} else {
					good.Inc()
				}
				if i%2 == shard {
					depth.Set(float64(i % 11))
				}
				if shard == 0 && i >= 40 {
					reg.Histogram("toy_ttft_seconds", "ttft", "device", "0").Observe(d / 2)
				}
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if ss[1].Ticks() >= ss[0].Ticks() {
		t.Fatalf("shard b ticked %d times, want fewer than shard a's %d", ss[1].Ticks(), ss[0].Ticks())
	}
	return ss
}

// TestMergeReadsRingsInPlace: the timeline Merge builds over the shard
// rings where they sit renders the same JSON bytes, alert log and burn
// series as the copying reference fold — with a histogram key shared by two
// shards, rings that evicted ticks, and a shard extended by FinishTo.
func TestMergeReadsRingsInPlace(t *testing.T) {
	for _, capacity := range []int{64, 31, 13, 8} {
		cfg := toyConfig()
		cfg.Capacity = capacity
		cfg.SLOs = append(cfg.SLOs,
			SLO{Name: "ttft", Hist: "toy_ttft_seconds", Threshold: 0.020, Objective: 0.9},
			SLO{Name: "ratio", Good: "toy_good_total", Bad: "toy_bad_total", Objective: 0.95})
		cfg.Rules = append(cfg.Rules, BurnRule{Name: "slow", Long: 100 * time.Millisecond, Short: 25 * time.Millisecond, Factor: 2})

		ref := refMerge(cfg, shardSamplers(t, cfg))
		tl := Merge(cfg, shardSamplers(t, cfg))

		if tl.Ticks != 39 || tl.Start != max(0, 39-capacity) {
			t.Fatalf("cap %d: ticks %d start %d", capacity, tl.Ticks, tl.Start)
		}
		if len(tl.hists[`toy_latency_seconds`].rings) != 2 {
			t.Fatalf("cap %d: shared histogram merged %d rings, want 2", capacity, len(tl.hists[`toy_latency_seconds`].rings))
		}
		if len(ref.alerts) == 0 {
			t.Fatalf("cap %d: reference fired no alerts; the comparison would be vacuous", capacity)
		}
		if !reflect.DeepEqual(tl.Alerts, ref.alerts) {
			t.Errorf("cap %d: alerts\n%+v\nwant\n%+v", capacity, tl.Alerts, ref.alerts)
		}
		if !reflect.DeepEqual(tl.Burns(), ref.burns) {
			t.Errorf("cap %d: burns differ from the reference", capacity)
		}
		var got bytes.Buffer
		if err := tl.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if want := ref.writeJSON(); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("cap %d: WriteJSON differs from the reference:\n%s\nwant\n%s", capacity, got.Bytes(), want)
		}
	}
}

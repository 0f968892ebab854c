package main

import (
	"math"
	"regexp"
	"testing"

	"olympian/internal/experiments"
)

// tinyScale shrinks every workload to a fraction of a second per rep.
const tinyScale = 0.01

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecNamesAndWorkloads(t *testing.T) {
	spec := loadSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !name.MatchString(m.Name) || len(m.Name) > 64 {
			t.Errorf("metric name %q", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %q listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloads[i].name)
		}
	}
}

// TestRunPrintsEveryMetric runs every workload plainly at tiny size, and one
// traced, and checks the result carries BENCHMARK.json's metrics with their
// units, with every check passing. The traced run is larger so that each rep
// spans several CPU profiler ticks.
func TestRunPrintsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	runs := []options{{workload: "fleet-micro", trace: 1, seconds: 1, scale: 0.1}}
	for _, w := range workloads {
		runs = append(runs, options{workload: w.name, scale: tinyScale})
	}
	for _, o := range runs {
		o.seed, o.out = 3, t.TempDir()
		w, _ := workloadNamed(o.workload)
		res, det, err := runWorkload(w, o, spec)
		if err != nil {
			t.Fatalf("%s trace %d: %v", o.workload, o.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s trace %d: correct %v, %d of %d failed: %v", o.workload, o.trace, res.Correct, res.Failed, res.Attempted, det.Problems)
		}
		want := spec.EndToEnd
		if o.trace == 1 {
			want = spec.PerLayer
		}
		for _, m := range want {
			if got := res.Metrics[m.Name]; got.Unit != m.Unit {
				t.Errorf("%s: metric %s has unit %q, want %q", o.workload, m.Name, got.Unit, m.Unit)
			}
		}
	}
}

func TestTinyWorkloadsDeterministic(t *testing.T) {
	for _, w := range workloads {
		var outs [2]repOut
		for i := range outs {
			run, err := w.setup(5, tinyScale)
			if err != nil {
				t.Fatal(err)
			}
			if outs[i], err = run(nil); err != nil {
				t.Fatal(err)
			}
		}
		if outs[0].modeled != outs[1].modeled {
			t.Errorf("%s: modeled outputs differ: %+v vs %+v", w.name, outs[0].modeled, outs[1].modeled)
		}
		for k, v := range outs[0].counts {
			if outs[1].counts[k] != v {
				t.Errorf("%s: count %s differs: %v vs %v", w.name, k, v, outs[1].counts[k])
			}
		}
	}
}

// TestFig11MatchesExperiment checks the paper-fig11 rep reproduces the fig11
// experiment's quick-size pair exactly.
func TestFig11MatchesExperiment(t *testing.T) {
	rep, err := experiments.Fig11(experiments.Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	run, err := setupFig11(1, 4, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	out, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]float64{
		"vanilla_spread":  out.modeled.VanillaSpread,
		"olympian_spread": out.modeled.OlympianSpread,
		"overhead":        out.modeled.Overhead,
	} {
		if want := rep.Metric(name); got != want {
			t.Errorf("%s = %v, fig11 experiment reports %v", name, got, want)
		}
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricSpec{Name: "cpu_s_per_kreq", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "req_per_s", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		m    metricSpec
		a, b []float64
		want string
	}{
		{lower, base, []float64{120, 121, 119, 120, 120}, "worse"},
		{lower, base, []float64{80, 81, 79, 80, 80}, "improved"},
		{lower, base, []float64{105, 104, 106, 105, 105}, "unchanged"},
		{higher, base, []float64{120, 121, 119, 120, 120}, "improved"},
		{higher, base, []float64{80, 81, 79, 80, 80}, "worse"},
		{higher, base, []float64{50, 150, 100, 60, 140}, "unresolved"},
		{higher, []float64{50, 150, 100, 60, 140}, base, "unresolved"},
	} {
		if got, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Better, c.a, c.b, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v, %v; want 1, 4", q1, q3)
	}
	if s := spread([]float64{7, 7, 7}); s != 0 {
		t.Errorf("spread of equal values = %v", s)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mapaccess1", "olympian/internal/gpu.(*Device).pump", "olympian/internal/sim.(*Env).Run"}, "gpu"},
		{[]string{"runtime.mallocgc", "olympian/internal/llm.(*Batcher).EnqueueFront", "olympian/internal/serving.(*LLMServer).step"}, "llm"},
		{[]string{"olympian/internal/sim.push[...]", "main.main"}, "sim"},
		{[]string{"olympian/internal/sim.(*Env).Run.func1", "main.fleetRep"}, "sim"},
		{[]string{"olympian/internal/metrics.Quantile", "olympian/internal/serving.(*Server).Stats"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime.gc"},
		{[]string{"runtime.sweepone", "runtime.bgsweep", "runtime.goexit"}, "runtime.gc"},
		{[]string{"runtime._GC"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "runtime.sched"},
		{[]string{"runtime._System"}, "runtime.sched"},
		{[]string{"runtime.memmove", "main.runWorkload", "main.main"}, "other"},
		{[]string{"runtime/pprof.(*profileBuilder).addCPUData", "runtime/pprof.profileWriter"}, "other"},
		{nil, "runtime.sched"},
	} {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{"run", 0, 100},
		{"submit", 10, 20},
		{"submit", 30, 45},
		{"stats", 100, 110},
		{"setup", -50, -10},
	}
	want := []int64{75, 10, 15, 10, 40}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].name, got[i], want[i])
		}
	}
}

func TestNearestRankAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := nearestRank(xs, 0.5); p != 5 {
		t.Errorf("p50 = %v", p)
	}
	if p := nearestRank(xs, 0.999); p != 10 {
		t.Errorf("p99.9 = %v", p)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	if r := ratio(1, 0); r != 0 || math.IsNaN(r) {
		t.Errorf("ratio(1, 0) = %v", r)
	}
}

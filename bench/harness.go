package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// setupReps is how often a run sets up; setup_s is the median. Setups
	// take about a millisecond on the open-loop workloads, so many samples
	// are needed for a steady median.
	setupReps = 15
	// minReps is the fewest measured reps a pass takes, however long they
	// run.
	minReps = 3
	// allocScale sizes the allocation pass: exact allocation profiling
	// slows allocation-heavy reps about 18x.
	allocScale = 0.2
	// Attribution self-checks: CPU shares must sum to 1 within cpuShareTol,
	// and the allocation pass's per-layer counts must cover its own
	// MemStats.Mallocs delta within allocCoverTol.
	cpuShareTol   = 0.01
	allocCoverTol = 0.01
)

// goldenJSON holds the modeled outputs of every workload at seeds 1 and 2
// at the benchmark size, keyed "<workload>/<seed>".
//
//go:embed testdata/golden.json
var goldenJSON []byte

// host fingerprints the machine a result was measured on.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// CalibNs is the median ns per iteration of a fixed integer loop timed
	// before the reps; CalibDrift is the after/before ratio minus 1.
	CalibNs    float64 `json:"calib_ns"`
	CalibDrift float64 `json:"calib_drift"`
}

// detail is printed as {"detail": ...} before the result line: the host,
// the per-rep samples behind each median (which --compare reads), the
// modeled outputs, and any failed check.
type detail struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Trace    int                  `json:"trace"`
	Host     host                 `json:"host"`
	Reps     int                  `json:"reps"`
	Samples  map[string][]float64 `json:"samples"`
	Modeled  modeled              `json:"modeled"`
	Problems []string             `json:"problems,omitempty"`
}

// repStat is one measured rep.
type repStat struct {
	out     repOut
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNs uint64
	// cpuProfile is the rep's CPU profile in the traced run's CPU pass.
	cpuProfile []byte
}

func (r repStat) perReq(v float64) float64 { return v / float64(r.out.requests) }

// checker holds what a rep's modeled outputs must equal.
type checker struct {
	ref    modeled
	golden *modeled
}

// check returns what is wrong with one rep's outputs.
func (c checker) check(out repOut) []string {
	var ps []string
	for _, v := range out.violations {
		ps = append(ps, "invariant: "+v)
	}
	if out.modeled != c.ref {
		ps = append(ps, fmt.Sprintf("modeled outputs differ between reps: %s vs %s", jsonString(out.modeled), jsonString(c.ref)))
	}
	if c.golden != nil && out.modeled != *c.golden {
		ps = append(ps, fmt.Sprintf("modeled outputs differ from testdata/golden.json: got %s, want %s", jsonString(out.modeled), jsonString(*c.golden)))
	}
	return ps
}

func jsonString(v any) string {
	buf, _ := json.Marshal(v) // modeled holds only numbers and strings
	return string(buf)
}

// goldenFor returns the modeled outputs the benchmark-size run of w at seed
// must produce, or nil when the seed has none.
func goldenFor(w benchWorkload, seed int64) (*modeled, error) {
	var all map[string]modeled
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return nil, fmt.Errorf("parse testdata/golden.json: %w", err)
	}
	g, ok := all[w.name+"/"+strconv.FormatInt(seed, 10)]
	if !ok {
		return nil, nil
	}
	return &g, nil
}

// runWorkload is one benchmark process: set up, one discarded warm-up rep,
// then measured reps for o.seconds. A traced run (o.trace == 1) spends half
// the time on plain reps and half on reps under the CPU profiler, then runs
// the allocation pass.
func runWorkload(w benchWorkload, o options, spec benchSpec) (result, detail, error) {
	det := detail{Workload: w.name, Seed: o.seed, Trace: o.trace, Host: hostInfo()}
	calibBefore := calibrate()
	var log *spanLog
	if o.trace == 1 {
		log = newSpanLog()
	}

	var run repFunc
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t, start := log.now(), time.Now()
		r, err := w.setup(o.seed, o.scale)
		setups = append(setups, time.Since(start).Seconds())
		log.add("setup", t)
		if err != nil {
			return result{}, det, fmt.Errorf("%s setup: %w", w.name, err)
		}
		run = r
	}

	var golden *modeled
	if o.scale == 1 {
		var err error
		if golden, err = goldenFor(w, o.seed); err != nil {
			return result{}, det, err
		}
	}
	warm, err := run(nil)
	if err != nil {
		return result{}, det, fmt.Errorf("%s warm-up rep: %w", w.name, err)
	}
	ck := checker{ref: warm.modeled, golden: golden}
	det.Modeled = warm.modeled
	det.Problems = ck.check(warm)

	budget := time.Duration(o.seconds) * time.Second
	if o.trace == 1 {
		budget /= 2
	}
	res := result{Metrics: map[string]metricValue{}}
	measure := func(log *spanLog, profiled bool) ([]repStat, error) {
		var reps []repStat
		for start := time.Now(); len(reps) < minReps || time.Since(start) < budget; {
			r, err := measureRep(run, log, profiled)
			if err != nil {
				return nil, fmt.Errorf("%s rep: %w", w.name, err)
			}
			res.Attempted += r.out.requests
			if ps := ck.check(r.out); len(ps) > 0 {
				res.Failed += r.out.requests
				det.Problems = append(det.Problems, ps...)
			}
			reps = append(reps, r)
		}
		return reps, nil
	}
	plain, err := measure(nil, false)
	if err != nil {
		return result{}, det, err
	}
	det.Reps = len(plain)
	det.Samples = map[string][]float64{"setup_s": setups}
	for name, f := range repMetrics {
		for _, r := range plain {
			det.Samples[name] = append(det.Samples[name], f(r))
		}
	}

	values := map[string]float64{}
	if o.trace == 0 {
		for name, xs := range det.Samples {
			values[name] = median(xs)
		}
		values["peak_rss_mb"] = peakRSSMiB()
	} else {
		traced, err := measure(log, true)
		if err != nil {
			return result{}, det, err
		}
		alloc, err := allocPass(w, o.seed, o.scale*allocScale)
		if err != nil {
			return result{}, det, err
		}
		if err := layerMetrics(values, plain, traced, alloc, log); err != nil {
			return result{}, det, err
		}
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return result{}, det, err
		}
		if err := writeChromeTrace(filepath.Join(o.out, w.name+".spans.json"), log.spans); err != nil {
			return result{}, det, err
		}
		if d := values["attr.cpu_share_sum"] - 1; math.Abs(d) > cpuShareTol {
			det.Problems = append(det.Problems, fmt.Sprintf("CPU shares sum to %.4f, want 1±%.2f", 1+d, cpuShareTol))
		}
		if d := values["attr.alloc_coverage"] - 1; math.Abs(d) > allocCoverTol {
			det.Problems = append(det.Problems, fmt.Sprintf("per-layer allocations cover %.4f of the pass's Mallocs delta, want 1±%.2f", 1+d, allocCoverTol))
		}
	}
	calibAfter := calibrate()
	det.Host.CalibNs = calibBefore
	det.Host.CalibDrift = calibAfter/calibBefore - 1
	values["host.calib_ns"] = det.Host.CalibNs
	values["host.calib_drift"] = det.Host.CalibDrift

	metrics := spec.EndToEnd
	if o.trace == 1 {
		metrics = spec.PerLayer
	}
	for _, m := range metrics {
		v, ok := values[m.Name]
		if !ok {
			return result{}, det, fmt.Errorf("metric %s is in BENCHMARK.json but the benchmark does not compute it", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, det, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	res.Correct = len(det.Problems) == 0
	return res, det, nil
}

// repMetrics are the end-to-end metrics taken per rep; a run reports the
// median over its reps.
var repMetrics = map[string]func(repStat) float64{
	"req_per_s":      func(r repStat) float64 { return float64(r.out.requests) / r.wall.Seconds() },
	"cpu_s_per_kreq": func(r repStat) float64 { return r.perReq(1000 * r.cpu.Seconds()) },
	"allocs_per_req": func(r repStat) float64 { return r.perReq(float64(r.mallocs)) },
	"bytes_per_req":  func(r repStat) float64 { return r.perReq(float64(r.bytes)) },
}

// measureRep runs and measures one rep, starting from a collected heap so
// reps do not pay for each other's garbage. With profiled set the rep runs
// under the CPU profiler.
func measureRep(run repFunc, log *spanLog, profiled bool) (repStat, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof bytes.Buffer
	if profiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return repStat{}, err
		}
	}
	c0, t0 := cpuTime(), time.Now()
	out, err := run(log)
	wall, c1 := time.Since(t0), cpuTime()
	if profiled {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	if err != nil {
		return repStat{}, err
	}
	if out.requests == 0 {
		return repStat{}, fmt.Errorf("rep sent no requests")
	}
	return repStat{
		out:        out,
		wall:       wall,
		cpu:        c1 - c0,
		mallocs:    m1.Mallocs - m0.Mallocs,
		bytes:      m1.TotalAlloc - m0.TotalAlloc,
		gcs:        m1.NumGC - m0.NumGC,
		pauseNs:    m1.PauseTotalNs - m0.PauseTotalNs,
		cpuProfile: prof.Bytes(),
	}, nil
}

// allocResult is the allocation pass: one rep at allocScale with every
// allocation profiled. tiny counts the allocations the runtime packs into
// an already open 16-byte block; it never profiles those, so they form a
// row of their own, and the layers plus tiny must add up to mallocs.
type allocResult struct {
	byLayer  allocProfile
	tiny     uint64
	requests int
	mallocs  uint64
}

// allocCounters returns the heap objects allocated so far and how many of
// them were packed tiny allocations. Call it after runtime.GC, which flushes
// the per-P counts both read.
func allocCounters() (mallocs, tiny uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []rtmetrics.Sample{{Name: "/gc/heap/tiny/allocs:objects"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() == rtmetrics.KindUint64 {
		tiny = s[0].Value.Uint64()
	}
	return ms.Mallocs, tiny
}

func allocPass(w benchWorkload, seed int64, scale float64) (allocResult, error) {
	run, err := w.setup(seed, scale)
	if err != nil {
		return allocResult{}, err
	}
	runtime.GC()
	runtime.GC()
	before := allocByLayer()
	m0, t0 := allocCounters()
	runtime.MemProfileRate = 1
	out, err := run(nil)
	runtime.MemProfileRate = 0
	if err != nil {
		return allocResult{}, fmt.Errorf("%s allocation pass: %w", w.name, err)
	}
	runtime.GC()
	runtime.GC()
	m1, t1 := allocCounters()
	return allocResult{
		byLayer:  allocByLayer().since(before),
		tiny:     t1 - t0,
		requests: out.requests,
		mallocs:  m1 - m0,
	}, nil
}

// layerMetrics fills the per-layer metrics: work counts from the plain reps,
// CPU attribution from the traced reps, allocations from the allocation
// pass, and harness spans from the span log.
func layerMetrics(v map[string]float64, plain, traced []repStat, alloc allocResult, log *spanLog) error {
	last := plain[len(plain)-1]
	for _, stem := range []string{
		"gpu.kernels", "executor.tasks", "executor.pool_delayed", "core.switches", "core.quanta",
		"serving.batches", "cluster.decisions", "cluster.failovers", "cluster.hedges",
		"llm.tokens", "llm.preemptions", "llm.transfers", "llm.retries", "overload.sheds", "obs.spans",
	} {
		v[stem+"_per_req"] = last.perReq(last.out.counts[stem])
	}
	v["cluster.hedge_win_frac"] = ratio(last.out.counts["cluster.hedge_wins"], last.out.counts["cluster.hedges"])
	v["telemetry.ticks"] = last.out.counts["telemetry.ticks"]
	v["requests_failed_frac"] = ratio(float64(last.out.requests-last.out.modeled.Completed), float64(last.out.requests))
	v["llm.tokens_per_s"] = medianOf(plain, func(r repStat) float64 { return r.out.counts["llm.tokens"] / r.wall.Seconds() })
	v["runtime.gc_cycles_per_kreq"] = medianOf(plain, func(r repStat) float64 { return r.perReq(1000 * float64(r.gcs)) })
	v["runtime.gc_pause_ms_per_kreq"] = medianOf(plain, func(r repStat) float64 { return r.perReq(float64(r.pauseNs) / 1e3) })
	v["trace_overhead_frac"] = 1 - medianOf(traced, repMetrics["req_per_s"])/medianOf(plain, repMetrics["req_per_s"])

	cpuNs := map[string]int64{}
	var total, requests int64
	var cpu time.Duration
	for _, r := range traced {
		byLayer, t, err := cpuByLayer(r.cpuProfile)
		if err != nil {
			return err
		}
		for l, ns := range byLayer {
			cpuNs[l] += ns
		}
		total += t
		requests += int64(r.out.requests)
		cpu += r.cpu
	}
	usPerReq := cpu.Seconds() * 1e6 / float64(requests)
	var shareSum float64
	for _, l := range cpuLayers {
		share := ratio(float64(cpuNs[l]), float64(total))
		shareSum += share
		v["cpu_us_per_req."+l] = share * usPerReq
	}
	v["attr.cpu_share_sum"] = shareSum
	for stem, count := range map[string]string{
		"gpu.cpu_ns_per_kernel":    "gpu.kernels",
		"core.cpu_ns_per_switch":   "core.switches",
		"serving.cpu_ns_per_batch": "serving.batches",
		"llm.cpu_ns_per_token":     "llm.tokens",
	} {
		layer, _, _ := strings.Cut(stem, ".")
		v[stem] = ratio(1000*v["cpu_us_per_req."+layer], v[count+"_per_req"])
	}

	objects := int64(alloc.tiny)
	for _, l := range allocLayers {
		objects += alloc.byLayer.objects[l]
		v["allocs_per_req."+l] = float64(alloc.byLayer.objects[l]) / float64(alloc.requests)
		v["bytes_per_req."+l] = float64(alloc.byLayer.bytes[l]) / float64(alloc.requests)
	}
	v["allocs_per_req.tiny"] = float64(alloc.tiny) / float64(alloc.requests)
	v["attr.alloc_coverage"] = ratio(float64(objects), float64(alloc.mallocs))

	for name, key := range map[string]string{
		"span.new_ms": "new", "span.stats_ms": "stats", "span.check_ms": "check",
		"span.timeline_ms": "timeline", "span.trace_write_ms": "trace_write", "span.setup_ms": "setup",
	} {
		v[name] = median(log.durations(key)) / 1e6
	}
	v["span.run_s"] = median(log.durations("run")) / 1e9
	submits := log.durations("submit")
	slices.Sort(submits)
	v["span.submit_ns.p50"] = nearestRank(submits, 0.5)
	v["span.submit_ns.p999"] = nearestRank(submits, 0.999)
	v["span.submit_samples"] = float64(len(submits))
	return nil
}

// ratio is a/b, or 0 when b is 0 (a count the workload never makes).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func medianOf(reps []repStat, f func(repStat) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// median returns the median of xs, 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// nearestRank returns the q-quantile of sorted xs by the nearest-rank rule,
// 0 for none.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func hostInfo() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPUModel = strings.TrimSpace(val)
			break
		}
	}
	return h
}

// calibLoop is the fixed work calibrate times; calibSink keeps the compiler
// from removing it.
const calibLoop = 1 << 22

var calibSink uint64

// calibrate returns the median ns per iteration of a fixed xorshift loop
// over five timings, a host-speed reading independent of the simulator.
func calibrate() float64 {
	ts := make([]float64, 5)
	for i := range ts {
		x := uint64(88172645463325252)
		start := time.Now()
		for j := 0; j < calibLoop; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ts[i] = float64(time.Since(start)) / calibLoop
		calibSink += x
	}
	return median(ts)
}

// Package profiler implements Olympian's offline profiler (paper §3.3).
//
// The profiler runs a model solo (with exclusive GPU access) and collects
// the TensorFlow-cost-model equivalents the scheduler needs:
//
//   - per-node costs (the node's measured kernel service time),
//   - C_j, the sum of all GPU node costs,
//   - D_j, the solo GPU duration (union of busy intervals, Figure 5), and
//   - the solo wall runtime.
//
// From a desired quantum Q it derives the cost-accumulation threshold
// T_j = Q * C_j / D_j. It also generates the paper's Overhead-Q curves
// (Figure 8) by running job pairs under vanilla TF-Serving and under
// Olympian across a Q sweep, selects Q from an operator overhead tolerance,
// validates cost/duration stability across repeated runs (§4.4), and fits
// per-op-class linear cost models so that unprofiled batch sizes can be
// served from profiles of two nearby ones (Figure 20).
package profiler

import (
	"fmt"
	"sort"
	"time"

	"olympian/internal/core"
	"olympian/internal/executor"
	"olympian/internal/gpu"
	"olympian/internal/graph"
	"olympian/internal/metrics"
	"olympian/internal/par"
	"olympian/internal/sim"
)

// Result is one offline profile of a (model, batch) graph.
type Result struct {
	// Model and Batch identify the profiled graph.
	Model string
	Batch int
	// NodeCost is the measured cost per graph node ID (zero for CPU nodes).
	NodeCost []time.Duration
	// TotalCost is C_j.
	TotalCost time.Duration
	// GPUDuration is D_j.
	GPUDuration time.Duration
	// Runtime is the solo wall runtime of one inference.
	Runtime time.Duration
}

// Rate returns the cost accumulation rate C_j/D_j.
func (r *Result) Rate() float64 {
	if r.GPUDuration == 0 {
		return 1
	}
	return float64(r.TotalCost) / float64(r.GPUDuration)
}

// Threshold returns T_j = Q * C_j / D_j for a quantum Q.
func (r *Result) Threshold(q time.Duration) time.Duration {
	return time.Duration(float64(q) * r.Rate())
}

// JobProfile converts the profile into the scheduler's form for quantum Q.
func (r *Result) JobProfile(q time.Duration) *core.JobProfile {
	return &core.JobProfile{
		NodeCost:    r.NodeCost,
		TotalCost:   r.TotalCost,
		GPUDuration: r.GPUDuration,
		Threshold:   r.Threshold(q),
	}
}

// Options tune profiling runs.
type Options struct {
	// Spec is the GPU platform to profile on (defaults to GTX1080Ti).
	Spec gpu.Spec
	// Seed seeds the run (profiles are deterministic given a seed).
	Seed int64
	// Jitter is the node-duration noise during the profile run.
	Jitter float64
}

func (o Options) withDefaults() Options {
	if o.Spec.Name == "" {
		o.Spec = gpu.GTX1080Ti
	}
	return o
}

// ProfileSolo runs one inference of g alone on an idle GPU and returns its
// profile. The cost of a GPU node is its kernel's execution (service)
// time, matching how TensorFlow's cost model reports per-node compute time
// (driver launch latency is not part of a node's cost).
func ProfileSolo(g *graph.Graph, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	env := sim.NewEnv(opts.Seed)
	dev := gpu.New(env, opts.Spec, env.Rand())
	eng := executor.New(env, dev, executor.Config{Jitter: opts.Jitter}, nil)

	res := &Result{
		Model:    g.Model,
		Batch:    g.BatchSize,
		NodeCost: make([]time.Duration, len(g.Nodes)),
	}
	eng.NodeObserver = func(_ *executor.Job, n *graph.Node, _, svc time.Duration) {
		if !n.IsGPU() {
			return
		}
		res.NodeCost[n.ID] = svc
		res.TotalCost += svc
	}
	var job executor.Job
	eng.InitJob(&job, &gpu.Stream{}, g)
	env.Go("profiler", func(p *sim.Proc) { eng.Run(p, &job) })
	err := env.Run()
	env.Shutdown()
	if err != nil {
		return nil, fmt.Errorf("profile %s/%d: %w", g.Model, g.BatchSize, err)
	}
	res.GPUDuration = job.Stream.Busy()
	res.Runtime = time.Duration(job.EndAt - job.StartAt)
	return res, nil
}

// Stability reports the mean and standard deviation of C_j and D_j over
// repeated solo runs with different seeds — the paper's §4.4 validation
// that offline profiles are stable enough to reuse.
type Stability struct {
	Model       string
	Batch       int
	Runs        int
	CostMean    time.Duration
	CostStd     time.Duration
	DurMean     time.Duration
	DurStd      time.Duration
	RuntimeMean time.Duration
	RuntimeStd  time.Duration
}

// MeasureStability profiles g `runs` times with varying seeds. The runs are
// independent simulations and execute in parallel; per-seed results land in
// their index slot, so the summary is identical to a serial sweep.
func MeasureStability(g *graph.Graph, runs int, opts Options) (*Stability, error) {
	opts = opts.withDefaults()
	if opts.Jitter == 0 {
		opts.Jitter = executor.DefaultJitter
	}
	costs := make([]float64, runs)
	durs := make([]float64, runs)
	rts := make([]float64, runs)
	if err := par.For(runs, func(i int) error {
		o := opts
		o.Seed = opts.Seed + int64(i)*7919
		r, err := ProfileSolo(g, o)
		if err != nil {
			return err
		}
		costs[i] = float64(r.TotalCost)
		durs[i] = float64(r.GPUDuration)
		rts[i] = float64(r.Runtime)
		return nil
	}); err != nil {
		return nil, err
	}
	cs := metrics.Summarize(costs)
	ds := metrics.Summarize(durs)
	rs := metrics.Summarize(rts)
	return &Stability{
		Model: g.Model, Batch: g.BatchSize, Runs: runs,
		CostMean: time.Duration(cs.Mean), CostStd: time.Duration(cs.Std),
		DurMean: time.Duration(ds.Mean), DurStd: time.Duration(ds.Std),
		RuntimeMean: time.Duration(rs.Mean), RuntimeStd: time.Duration(rs.Std),
	}, nil
}

// QPoint is one point of an Overhead-Q curve.
type QPoint struct {
	Q        time.Duration
	Overhead float64
}

// OverheadCurve is the paper's Figure 8 artifact for one model.
type OverheadCurve struct {
	Model  string
	Batch  int
	Points []QPoint // ascending Q
}

// DefaultQSweep is the Q grid used to trace Overhead-Q curves.
func DefaultQSweep() []time.Duration {
	return []time.Duration{
		300 * time.Microsecond,
		500 * time.Microsecond,
		800 * time.Microsecond,
		1200 * time.Microsecond,
		1600 * time.Microsecond,
		2400 * time.Microsecond,
		4000 * time.Microsecond,
	}
}

// MeasureOverheadCurve traces overhead as a function of Q for g: two
// instances of the model are run to completion under vanilla TF-Serving
// and under Olympian fair sharing; overhead is the relative increase in
// finish time (paper §3.3 "Overhead-Q curves").
func MeasureOverheadCurve(g *graph.Graph, prof *Result, qs []time.Duration, opts Options) (*OverheadCurve, error) {
	opts = opts.withDefaults()
	if len(qs) == 0 {
		qs = DefaultQSweep()
	}
	// The vanilla baseline and every Q point are independent simulations:
	// trace them all in parallel, then derive overheads.
	finishes := make([]time.Duration, len(qs)+1)
	if err := par.For(len(qs)+1, func(i int) error {
		var err error
		if i == 0 {
			finishes[0], err = pairFinish(g, nil, 0, opts)
		} else {
			finishes[i], err = pairFinish(g, prof, qs[i-1], opts)
		}
		return err
	}); err != nil {
		return nil, err
	}
	base := finishes[0]
	curve := &OverheadCurve{Model: g.Model, Batch: g.BatchSize}
	for i, q := range qs {
		ov := (finishes[i+1] - base).Seconds() / base.Seconds()
		if ov < 0 {
			ov = 0
		}
		curve.Points = append(curve.Points, QPoint{Q: q, Overhead: ov})
	}
	sort.Slice(curve.Points, func(i, j int) bool { return curve.Points[i].Q < curve.Points[j].Q })
	return curve, nil
}

// pairFinish runs two concurrent instances of g (two batches each) and
// returns the later finish time. With prof == nil the engine runs vanilla;
// otherwise Olympian fair-shares with quantum q.
func pairFinish(g *graph.Graph, prof *Result, q time.Duration, opts Options) (time.Duration, error) {
	env := sim.NewEnv(opts.Seed + 1)
	dev := gpu.New(env, opts.Spec, env.Rand())
	var hooks executor.Hooks
	if prof != nil {
		sched := core.New(env, dev, core.Config{Quantum: q, SwitchCost: core.DefaultSwitchCost})
		sched.SetProfile(g, prof.JobProfile(q))
		hooks = sched
	}
	eng := executor.New(env, dev, executor.Config{Jitter: opts.Jitter}, hooks)
	const batches = 2
	var last sim.Time
	for c := 0; c < 2; c++ {
		c := c
		env.Go("profpair", func(p *sim.Proc) {
			stream := &gpu.Stream{ID: c}
			var job executor.Job
			for b := 0; b < batches; b++ {
				eng.InitJob(&job, stream, g)
				eng.Run(p, &job)
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	err := env.Run()
	env.Shutdown()
	if err != nil {
		return 0, fmt.Errorf("overhead pair %s/%d q=%v: %w", g.Model, g.BatchSize, q, err)
	}
	return time.Duration(last), nil
}

// ChooseQ returns the smallest Q on the curve whose overhead is within the
// tolerance, interpolating between sweep points. If even the largest Q
// exceeds the tolerance the largest Q is returned.
func ChooseQ(curve *OverheadCurve, tolerance float64) time.Duration {
	pts := curve.Points
	if len(pts) == 0 {
		return 0
	}
	for i, pt := range pts {
		if pt.Overhead <= tolerance {
			if i == 0 {
				return pt.Q
			}
			prev := pts[i-1]
			// Linear interpolation between (prev.Q, prev.Overhead) and
			// (pt.Q, pt.Overhead) at overhead == tolerance.
			if prev.Overhead == pt.Overhead {
				return pt.Q
			}
			f := (prev.Overhead - tolerance) / (prev.Overhead - pt.Overhead)
			if f < 0 {
				f = 0
			}
			if f > 1 {
				f = 1
			}
			return prev.Q + time.Duration(f*float64(pt.Q-prev.Q))
		}
	}
	return pts[len(pts)-1].Q
}

// ChooseQForSet picks the largest per-model ChooseQ across curves, so that
// no model exceeds the tolerance (paper §3.3: "takes the largest Q among
// them").
func ChooseQForSet(curves []*OverheadCurve, tolerance float64) time.Duration {
	var q time.Duration
	for _, c := range curves {
		if cq := ChooseQ(c, tolerance); cq > q {
			q = cq
		}
	}
	return q
}

// OnlineOverhead measures the Figure 6 comparison for g: solo runtime with
// and without the online cost profiler.
type OnlineOverhead struct {
	Model    string
	Batch    int
	Offline  time.Duration
	Online   time.Duration
	Overhead float64
}

// MeasureOnlineOverhead runs g solo with and without online profiling.
func MeasureOnlineOverhead(g *graph.Graph, tax time.Duration, opts Options) (*OnlineOverhead, error) {
	opts = opts.withDefaults()
	run := func(withTax bool) (time.Duration, error) {
		env := sim.NewEnv(opts.Seed + 2)
		dev := gpu.New(env, opts.Spec, env.Rand())
		cfg := executor.Config{Jitter: opts.Jitter}
		if withTax {
			cfg.OnlineProfilingTax = tax
		}
		eng := executor.New(env, dev, cfg, nil)
		var job executor.Job
		eng.InitJob(&job, &gpu.Stream{}, g)
		env.Go("online", func(p *sim.Proc) { eng.Run(p, &job) })
		err := env.Run()
		env.Shutdown()
		if err != nil {
			return 0, err
		}
		return time.Duration(job.EndAt - job.StartAt), nil
	}
	off, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("online overhead %s: %w", g.Model, err)
	}
	on, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("online overhead %s: %w", g.Model, err)
	}
	return &OnlineOverhead{
		Model: g.Model, Batch: g.BatchSize,
		Offline: off, Online: on,
		Overhead: (on - off).Seconds() / off.Seconds(),
	}, nil
}

// DefaultOnlineTax is the per-node instrumentation cost of the online
// profiler model (yields the paper's 21-29% range across the seven DNNs).
const DefaultOnlineTax = 12 * time.Microsecond

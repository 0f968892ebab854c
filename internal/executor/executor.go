// Package executor implements the TF-Serving execution engine the paper
// extends: Algorithm 1's processing loop, the shared CPU thread pool, and
// the gang-of-threads job model.
//
// A job (one Session::Run of a model graph) is driven by a gang of simulated
// CPU threads. The session thread traverses the graph breadth-first; each
// asynchronous (GPU-backed) child is handed to a thread fetched from the
// shared pool, which submits the node's kernel to the GPU and blocks until
// it completes. The engine itself is scheduler-agnostic: a Hooks
// implementation observes job registration, node boundaries (the paper's
// yield points, Algorithm 2 line 12) and node completion (cost accumulation,
// lines 14-18). Vanilla TF-Serving is the engine with NopHooks.
package executor

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"olympian/internal/faults"
	"olympian/internal/gpu"
	"olympian/internal/graph"
	"olympian/internal/obs"
	"olympian/internal/sim"
)

// Job is one in-flight Session::Run: a model graph being evaluated for one
// input batch on behalf of a client.
type Job struct {
	// ID uniquely identifies the job within an engine.
	ID int
	// Client is the submitting client's id (stable across a client's jobs).
	Client int
	// Graph is the model dataflow graph to execute.
	Graph *graph.Graph
	// Weight is the weighted-fair-sharing weight (>= 1).
	Weight int
	// Priority orders jobs under priority scheduling (higher runs first).
	Priority int
	// Deadline, if nonzero, is the job's completion target on the virtual
	// clock; deadline-aware policies (EDF) order by it.
	Deadline sim.Time

	// StartAt and EndAt record the job's execution interval.
	StartAt, EndAt sim.Time

	wg       *sim.WaitGroup
	inflight *sim.Semaphore

	aborted bool
	err     error
}

// Aborted reports whether the job was aborted before completing.
func (j *Job) Aborted() bool { return j.aborted }

// Err returns the failure that aborted the job, or nil on success.
func (j *Job) Err() error { return j.err }

// Hooks is the scheduler interface: the points at which Olympian (or any
// other policy) intercepts the processing loop.
type Hooks interface {
	// Register is called when a job starts (Algorithm 2 line 4).
	Register(p *sim.Proc, job *Job)
	// Deregister is called when a job completes (line 7).
	Deregister(p *sim.Proc, job *Job)
	// Yield is called before each node executes (line 12); it may suspend
	// the calling thread until its job is granted GPU access.
	Yield(p *sim.Proc, job *Job)
	// NodeDone is called after each node executes (lines 14-18): the point
	// where GPU cost is accumulated and quantum expiry detected.
	NodeDone(p *sim.Proc, job *Job, n *graph.Node)
}

// JobCanceller is an optional extension of Hooks: a scheduler that parks
// gang threads (Olympian's Yield) must implement it so that an aborted
// job's threads are woken and can unwind instead of waiting for a token
// that may never come.
type JobCanceller interface {
	// Cancel is called once when job is aborted; implementations wake any
	// of the job's parked threads.
	Cancel(p *sim.Proc, job *Job)
}

// NopHooks is vanilla TF-Serving: no scheduling beyond the GPU driver's.
type NopHooks struct{}

var _ Hooks = NopHooks{}

// Register implements Hooks.
func (NopHooks) Register(*sim.Proc, *Job) {}

// Deregister implements Hooks.
func (NopHooks) Deregister(*sim.Proc, *Job) {}

// Yield implements Hooks.
func (NopHooks) Yield(*sim.Proc, *Job) {}

// NodeDone implements Hooks.
func (NopHooks) NodeDone(*sim.Proc, *Job, *graph.Node) {}

// Config tunes the engine.
type Config struct {
	// ThreadPoolSize caps the shared CPU thread pool (0 means the
	// TF-Serving default).
	ThreadPoolSize int
	// Jitter is the relative standard deviation applied to node durations,
	// modelling OS and clock noise. Zero disables it.
	Jitter float64
	// NodeOverhead is per-node middleware bookkeeping time on the managing
	// CPU thread.
	NodeOverhead time.Duration
	// OnlineProfilingTax, when nonzero, models running TensorFlow's CUPTI
	// cost profiler online. Instrumentation cost is proportional to the
	// number of graph nodes, so kernels of a graph with N nodes and total
	// GPU work W are stretched by the factor 1 + Tax*N/W — reproducing the
	// paper's Figure 6 finding that online profiling inflates execution
	// times by 21-29% depending on the model.
	OnlineProfilingTax time.Duration
	// MaxInflight caps the kernels a single job may have queued or running
	// on the device at once (the stream-depth limit of the runtime). It
	// bounds the quantum overflow of Figures 10/15 to a handful of nodes.
	// Zero means DefaultMaxInflight.
	MaxInflight int
	// KernelSliceDur, when nonzero, enables the kernel-slicing baseline the
	// paper's related work describes ([2,4,19,23,31,33]): each GPU kernel is
	// split into slices of at most this duration with a scheduler yield
	// point between slices, giving sub-node preemption granularity.
	KernelSliceDur time.Duration
	// KernelSlicePenalty is the state save/restore cost added to every
	// slice after the first — the expensive part of kernel-level
	// preemption that Olympian's node-boundary switching avoids.
	KernelSlicePenalty time.Duration
	// Faults, when non-nil, injects job aborts at yield points; kernels
	// failed by the same injector at the device are retried here.
	Faults *faults.Injector
	// KernelRetries caps resubmissions of a transiently failed kernel
	// before the whole job is aborted. Zero means DefaultKernelRetries.
	KernelRetries int
	// Obs, when non-nil, records job spans, kernel retries, and aborts to
	// the lifecycle trace. Nil keeps the zero-cost disabled path.
	Obs *obs.Recorder
	// Device is the device index used in Obs track layout.
	Device int
}

// DefaultKernelRetries is how often a transiently failed kernel is
// relaunched before its job is given up on.
const DefaultKernelRetries = 3

// DefaultMaxInflight matches the small per-session kernel pipeline depth of
// the TensorFlow runtime. The paper reports 2-3 kernels of switch-time
// overflow; at this depth the measured maximum is 1 (EXPERIMENTS.md, fig15),
// and no single depth closes that gap together with the others (ROADMAP
// item 10).
const DefaultMaxInflight = 2

// DefaultThreadPoolSize matches TF-Serving's large default inter-op pool.
const DefaultThreadPoolSize = 4000

// Engine executes jobs against one GPU device.
type Engine struct {
	env   *sim.Env
	dev   *gpu.Device
	cfg   Config
	hooks Hooks
	pool  *ThreadPool
	rng   *rand.Rand // nil: fall back to the environment's shared source

	jobSeq        int
	taxOf         map[*graph.Graph]float64
	kernelRetries int

	jobsC   *obs.Series
	abortsC *obs.Series

	// NodeObserver, if set, is called after every node execution with the
	// node's wall time (including queueing) and its service time (the
	// kernel's execution duration for GPU nodes, compute time for CPU
	// nodes); the offline profiler uses it to build cost models without
	// perturbing the run it measures.
	NodeObserver func(job *Job, n *graph.Node, wall, svc time.Duration)
}

// New returns an engine bound to env and dev, scheduled by hooks.
func New(env *sim.Env, dev *gpu.Device, cfg Config, hooks Hooks) *Engine {
	if hooks == nil {
		hooks = NopHooks{}
	}
	if cfg.ThreadPoolSize <= 0 {
		cfg.ThreadPoolSize = DefaultThreadPoolSize
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.KernelRetries <= 0 {
		cfg.KernelRetries = DefaultKernelRetries
	}
	e := &Engine{
		env:   env,
		dev:   dev,
		cfg:   cfg,
		hooks: hooks,
		taxOf: make(map[*graph.Graph]float64),
	}
	e.pool = NewThreadPool(env, cfg.ThreadPoolSize, e.runTask)
	reg := cfg.Obs.Registry()
	devLabel := strconv.Itoa(cfg.Device)
	e.jobsC = reg.Counter("olympian_executor_jobs_total", "Jobs executed.", "device", devLabel)
	reg.CounterView("olympian_executor_kernel_retries_total", "Transiently failed kernels relaunched.", &e.kernelRetries, "device", devLabel)
	e.abortsC = reg.Counter("olympian_executor_job_aborts_total", "Jobs aborted.", "device", devLabel)
	if dev != nil {
		dev.Observe(cfg.Obs, cfg.Device)
	}
	return e
}

// Env returns the engine's simulation environment.
func (e *Engine) Env() *sim.Env { return e.env }

// Device returns the engine's GPU device.
func (e *Engine) Device() *gpu.Device { return e.dev }

// Pool returns the engine's shared thread pool.
func (e *Engine) Pool() *ThreadPool { return e.pool }

// Hooks returns the engine's scheduler hooks.
func (e *Engine) Hooks() Hooks { return e.hooks }

// KernelRetries returns how many transiently failed kernels were
// relaunched so far.
func (e *Engine) KernelRetries() int { return e.kernelRetries }

// AbortJob marks job as failed with err and unwinds its gang: the
// scheduler's Cancel hook (if implemented) wakes any parked threads, every
// gang thread skips its remaining work at the next check point, and Run
// deregisters the job through the normal path — so the scheduling token is
// reclaimed and never stranded on an aborted holder.
func (e *Engine) AbortJob(p *sim.Proc, job *Job, err error) {
	if job.aborted {
		return
	}
	job.aborted = true
	job.err = err
	e.abortsC.Inc()
	e.cfg.Obs.Instant(obs.LayerExecutor, "job_abort", job.ID, obs.NoClass, e.cfg.Device, int64(job.Client))
	if c, ok := e.hooks.(JobCanceller); ok {
		c.Cancel(p, job)
	}
}

// NewJob allocates a job for a client run of g.
func (e *Engine) NewJob(client int, g *graph.Graph) *Job {
	e.jobSeq++
	return &Job{
		ID:       e.jobSeq,
		Client:   client,
		Graph:    g,
		Weight:   1,
		wg:       e.env.NewWaitGroup(),
		inflight: e.env.NewSemaphore(e.cfg.MaxInflight),
	}
}

// Run executes the job to completion on the calling process (the session
// thread), implementing Algorithm 1's SESSION::RUN.
func (e *Engine) Run(p *sim.Proc, job *Job) {
	job.StartAt = p.Now()
	span := e.cfg.Obs.StartSpan(obs.LayerExecutor, "job", job.ID, obs.NoClass, e.cfg.Device, int64(job.Client))
	e.jobsC.Inc()
	e.hooks.Register(p, job)
	e.process(p, job, job.Graph.Root)
	job.wg.Wait(p) // join the gang: all async subtrees done
	e.hooks.Deregister(p, job)
	job.EndAt = p.Now()
	e.cfg.Obs.EndSpan(span)
}

// process is Algorithm 1's PROCESS loop with the Algorithm 2 hook points
// spliced in.
func (e *Engine) process(p *sim.Proc, job *Job, root *graph.Node) {
	// Pop by head index, not by reslicing: queue[1:] would shrink the
	// capacity and make the appends below copy into a fresh array.
	queue := make([]*graph.Node, 0, 64)
	queue = append(queue, root)
	for head := 0; head < len(queue); {
		n := queue[head]
		head++
		if head == len(queue) {
			queue, head = queue[:0], 0
		}
		if !job.aborted && e.cfg.Faults.JobAborts() {
			e.AbortJob(p, job, faults.ErrJobAborted)
		}
		if job.aborted {
			return
		}
		e.hooks.Yield(p, job)
		if job.aborted {
			return
		}
		e.compute(p, job, n)
		e.hooks.NodeDone(p, job, n)
		for _, child := range n.Children {
			if !child.Async {
				queue = append(queue, child)
				continue
			}
			job.wg.Add(1)
			e.pool.Submit(job, child)
		}
	}
}

// runTask is a gang thread's work, run on a pool thread: the async subtree
// rooted at node, after which the thread leaves the job's gang.
func (e *Engine) runTask(w *sim.Proc, job *Job, node *graph.Node) {
	e.process(w, job, node)
	job.wg.Done()
}

// compute executes a single node on the calling thread: CPU nodes burn
// simulated CPU time; GPU nodes submit a kernel and block until it
// completes (the thread "manages" the kernel, as the paper describes).
func (e *Engine) compute(p *sim.Proc, job *Job, n *graph.Node) {
	start := p.Now()
	if e.cfg.NodeOverhead > 0 {
		p.Sleep(e.cfg.NodeOverhead)
	}
	dur := e.jittered(n.Duration)
	if n.IsGPU() {
		if e.cfg.OnlineProfilingTax > 0 {
			dur = time.Duration(float64(dur) * e.profilingFactor(job.Graph))
		}
		job.inflight.Acquire(p)
		// Second yield point, on the kernel-launch side of the in-flight
		// gate: a thread that waited out other kernels here must not
		// launch while its job is switched out.
		e.hooks.Yield(p, job)
		switch {
		case job.aborted:
			// Woken by Cancel: skip the launch and let the gang unwind.
		case e.cfg.KernelSliceDur > 0 && dur > e.cfg.KernelSliceDur:
			e.computeSliced(p, job, n, dur)
		default:
			e.submitKernel(p, job, n, dur)
		}
		job.inflight.Release()
	} else {
		p.Sleep(dur)
	}
	if e.NodeObserver != nil {
		e.NodeObserver(job, n, p.Now().Sub(start), dur)
	}
}

// submitKernel launches one kernel and waits for it, relaunching on
// injected transient failures up to the configured retry cap. Exhausting
// the cap aborts the whole job: the fault is no longer transient from the
// middleware's point of view. It reports whether the kernel succeeded.
func (e *Engine) submitKernel(p *sim.Proc, job *Job, n *graph.Node, dur time.Duration) bool {
	for attempt := 0; ; attempt++ {
		err := e.dev.Exec(p, gpu.Kernel{
			Owner:     job.ID,
			Stream:    job.Client,
			Duration:  dur,
			Occupancy: n.Occupancy,
		})
		if err == nil {
			return true
		}
		if errors.Is(err, faults.ErrDeviceCrashed) {
			// The device is gone, not glitching: retrying against a dead
			// device would spin the retry budget on instant failures. Abort
			// immediately so the serving layer can fail the batch over.
			e.AbortJob(p, job, fmt.Errorf("executor: job %d node %d: %w", job.ID, n.ID, err))
			return false
		}
		if attempt >= e.cfg.KernelRetries {
			e.AbortJob(p, job, fmt.Errorf("executor: job %d node %d: %w (gave up after %d attempts)",
				job.ID, n.ID, err, attempt+1))
			return false
		}
		e.kernelRetries++
		e.cfg.Obs.Instant(obs.LayerExecutor, "kernel_retry", job.ID, obs.NoClass, e.cfg.Device, int64(attempt+1))
		// Re-yield before relaunching: the retry must not run while the
		// job is switched out, and an abort may have landed meanwhile.
		e.hooks.Yield(p, job)
		if job.aborted {
			return false
		}
	}
}

// computeSliced runs a GPU node as a sequence of kernel slices with a
// yield point between them — the related-work baseline. Every slice after
// the first pays the preemption penalty of saving and restoring the
// kernel's massively parallel context.
func (e *Engine) computeSliced(p *sim.Proc, job *Job, n *graph.Node, dur time.Duration) {
	remaining := dur
	first := true
	for remaining > 0 {
		slice := e.cfg.KernelSliceDur
		if remaining < slice {
			slice = remaining
		}
		remaining -= slice
		if !first {
			// Sub-node preemption point, then pay the context restore.
			e.hooks.Yield(p, job)
			if job.aborted {
				return
			}
			slice += e.cfg.KernelSlicePenalty
		}
		first = false
		if !e.submitKernel(p, job, n, slice) {
			return
		}
	}
}

// profilingFactor returns the kernel inflation factor modelling online
// CUPTI instrumentation for g: 1 + Tax * nodes / totalGPUWork.
func (e *Engine) profilingFactor(g *graph.Graph) float64 {
	if f, ok := e.taxOf[g]; ok {
		return f
	}
	s := g.Stats()
	f := 1.0
	if s.GPUWork > 0 {
		f = 1 + e.cfg.OnlineProfilingTax.Seconds()*float64(s.Nodes)/s.GPUWork.Seconds()
	}
	e.taxOf[g] = f
	return f
}

// SetRand gives the engine a private random source in place of the
// environment's shared one; see gpu.Device.SetRand.
func (e *Engine) SetRand(r *rand.Rand) { e.rng = r }

// rand returns the engine's random source.
func (e *Engine) rand() *rand.Rand {
	if e.rng != nil {
		return e.rng
	}
	return e.env.Rand()
}

// jittered perturbs d by the configured relative noise, never below 20% of
// the nominal duration.
func (e *Engine) jittered(d time.Duration) time.Duration {
	if e.cfg.Jitter <= 0 || d <= 0 {
		return d
	}
	f := 1 + e.rand().NormFloat64()*e.cfg.Jitter
	if f < 0.2 {
		f = 0.2
	}
	return time.Duration(float64(d) * f)
}

// Package core implements the Olympian scheduler — the paper's primary
// contribution (Algorithm 2).
//
// Olympian time-slices the GPU among concurrent DNN jobs at the granularity
// of a dataflow-graph node. A single job at a time holds a token granting it
// GPU access; every gang thread passes through Yield before executing a node
// and cooperatively suspends itself (on the job's condition variable) while
// its job does not hold the token. Quantum expiry is driven not by wall
// time but by cost accumulation: each completed GPU node adds its profiled
// cost to the job's cumulated cost, and when that crosses the threshold
//
//	T_j = Q * C_j / D_j
//
// (Q the desired quantum, C_j the job's total profiled node cost, D_j its
// solo GPU duration), the token moves to the job chosen by the configured
// scheduling policy. Because in-flight kernels are never preempted, a
// switched-out job's last kernels may briefly overlap the next quantum
// ("overflow", Figures 10 and 15); their cost is charged to the original
// job, shrinking its next quantum, exactly as the paper describes.
//
// The package also provides the wall-clock quantum mode the paper evaluates
// as a strawman (Figure 19): identical mechanics, but the token rotates
// after a fixed wall-time slice regardless of GPU usage.
package core

import (
	"slices"
	"time"

	"olympian/internal/executor"
	"olympian/internal/gpu"
	"olympian/internal/graph"
	"olympian/internal/sim"
)

// QuantumMode selects how quantum expiry is detected.
type QuantumMode int

const (
	// CostBased expires a quantum when profiled GPU cost accumulates past
	// the job's threshold — Olympian's mechanism.
	CostBased QuantumMode = iota + 1
	// WallClock expires a quantum after a fixed wall-time slice — the
	// paper's Figure 19 strawman, which fails to isolate GPU usage.
	WallClock
)

// JobProfile is the offline profiler's output for one (model, batch) graph:
// per-node costs and the cost-accumulation threshold for quantum expiry.
type JobProfile struct {
	// NodeCost maps graph node ID to profiled cost. Cost is expressed in
	// nanosecond units of estimated node GPU time, as TensorFlow's cost
	// model does.
	NodeCost []time.Duration
	// TotalCost is C_j, the sum of all GPU node costs.
	TotalCost time.Duration
	// GPUDuration is D_j, the solo GPU duration of one run.
	GPUDuration time.Duration
	// Threshold is T_j = Q * C_j / D_j.
	Threshold time.Duration
}

// Config parameterises the scheduler.
type Config struct {
	// Policy selects which job receives each quantum. Defaults to Fair.
	Policy Policy
	// Quantum is Q, the desired per-quantum GPU duration (default
	// DefaultQuantum).
	Quantum time.Duration
	// SwitchCost is the CPU cost of suspending one gang and resuming
	// another (condition-variable wake-ups, cache disturbance). It delays
	// the start of each granted quantum.
	SwitchCost time.Duration
	// Mode selects cost-based (Olympian) or wall-clock (strawman) expiry.
	Mode QuantumMode
}

// DefaultQuantum is the Q the paper's profiler chose for its 10-client
// homogeneous workload; a run that does not choose Q runs with it.
const DefaultQuantum = 1200 * time.Microsecond

// DefaultSwitchCost approximates the measured cost of suspending and
// resuming a gang of CPU threads.
const DefaultSwitchCost = 20 * time.Microsecond

// QuantumRecord describes one completed scheduling interval.
type QuantumRecord struct {
	Client     int
	JobID      int
	Start, End sim.Time
	// GPUDuration is the GPU busy time the holder accumulated during the
	// interval (the paper's Figure 14/16 metric).
	GPUDuration time.Duration
	// ActiveJobs is the number of registered jobs when the interval ended.
	ActiveJobs int
	// OverflowKernels is how many of the holder's kernels were still
	// resident on the device when it was switched out (Figures 10/15).
	OverflowKernels int
}

// jobState is the scheduler's bookkeeping for a registered job.
type jobState struct {
	job          *executor.Job
	cond         *sim.Cond
	profile      *JobProfile
	cumulated    time.Duration // cumulatedCost of Algorithm 2
	busySnapshot time.Duration // stream busy at grant time
}

// Scheduler implements executor.Hooks with Olympian's scheduling logic.
type Scheduler struct {
	env *sim.Env
	dev *gpu.Device
	cfg Config

	profiles map[*graph.Graph]*JobProfile

	jobs   []*jobState // registration order
	holder *jobState
	free   []*jobState // deregistered records, reused with their Conds

	intervalStart sim.Time
	onQuantum     []func(QuantumRecord) // OnQuantum's observers
	pending       QuantumRecord         // last interval, awaiting overflow drain
	pendingJob    *jobState             // nil when no interval is staged
	switches      int
	active        []*executor.Job // pick's scratch, reused at every hand-off
}

var _ executor.Hooks = (*Scheduler)(nil)

// New returns a scheduler for dev. Profiles are attached per graph with
// SetProfile; jobs whose graph has no profile fall back to nominal node
// durations as costs with Threshold = Quantum.
func New(env *sim.Env, dev *gpu.Device, cfg Config) *Scheduler {
	if cfg.Policy == nil {
		cfg.Policy = NewFair()
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = DefaultQuantum
	}
	if cfg.Mode == 0 {
		cfg.Mode = CostBased
	}
	return &Scheduler{
		env:      env,
		dev:      dev,
		cfg:      cfg,
		profiles: make(map[*graph.Graph]*JobProfile),
	}
}

// SetProfile attaches the offline profile for a graph.
func (s *Scheduler) SetProfile(g *graph.Graph, p *JobProfile) { s.profiles[g] = p }

// Register implements executor.Hooks (Algorithm 2 line 4). The job's
// record comes from the free list when one is there, so a steady stream of
// jobs reuses both the records and their condition variables.
func (s *Scheduler) Register(job *executor.Job) {
	var js *jobState
	if n := len(s.free); n > 0 {
		js = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		js = &jobState{cond: s.env.NewCond("olympian-job")}
	}
	js.job, js.profile = job, s.profiles[job.Graph]
	s.jobs = append(s.jobs, js)
	if s.holder == nil {
		s.grant(js)
	}
}

// Deregister implements executor.Hooks (Algorithm 2 line 7).
func (s *Scheduler) Deregister(job *executor.Job) {
	idx := -1
	for i, js := range s.jobs {
		if js.job == job {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	departing := s.jobs[idx]
	s.jobs = slices.Delete(s.jobs, idx, idx+1)
	if s.pendingJob == departing {
		s.finalizePending()
	}
	if s.holder == departing {
		s.closeInterval(departing)
		// The departing job has no kernels left, so its interval is final
		// now; finalizing later would read the busy time of its stream's
		// next job.
		s.finalizePending()
		s.holder = nil
		if next := s.pick(departing.job); next != nil {
			s.switches++
			if s.cfg.Mode == CostBased {
				s.dev.SwitchBarrier(s.cfg.SwitchCost)
			}
			s.grant(next)
		}
	}
	// Nothing refers to the record now: it is neither the holder nor the
	// staged interval's, and the job's gang, the only waiters on its Cond,
	// has finished.
	*departing = jobState{cond: departing.cond}
	s.free = append(s.free, departing)
}

// Yield implements executor.Hooks (Algorithm 2 line 12): gang threads of
// non-holders suspend themselves here until their job regains the token.
// Threads of an aborted job return immediately so the gang can unwind
// without waiting for a grant that may never come.
func (s *Scheduler) Yield(p *sim.Proc, job *executor.Job) {
	js := s.state(job)
	if js == nil {
		return
	}
	for s.holder != js {
		if job.Aborted() {
			return
		}
		js.cond.Wait(p)
	}
	// In wall-clock mode a long-running holder may exhaust its slice while
	// never completing a GPU node; check here too.
	if s.cfg.Mode == WallClock && s.holder == js && p.Now().Sub(s.intervalStart) >= s.cfg.Quantum {
		s.rotate(js)
	}
}

// Cancel implements executor.Hooks: when a job is aborted, its gang
// threads may be parked on the job's condition variable waiting for the
// token. Waking them lets each observe the abort in Yield and unwind, so
// the job reaches Deregister — where the token, if held, is handed off —
// instead of stranding the gang (and with it the token) forever.
func (s *Scheduler) Cancel(job *executor.Job) {
	js := s.state(job)
	if js == nil {
		return
	}
	js.cond.Broadcast()
}

// NodeDone implements executor.Hooks (Algorithm 2 lines 14-18): accumulate
// the node's profiled cost and rotate the token when the threshold is
// crossed.
func (s *Scheduler) NodeDone(job *executor.Job, n *graph.Node) {
	js := s.state(job)
	if js == nil || !n.IsGPU() {
		return
	}
	switch s.cfg.Mode {
	case CostBased:
		js.cumulated += s.nodeCost(js, n)
		// Only the holder's threshold crossing moves the token; a
		// switched-out job's overflow nodes accumulate cost that shortens
		// its next quantum (Figure 15).
		if s.holder == js && js.cumulated >= s.threshold(js) {
			js.cumulated -= s.threshold(js)
			s.rotate(js)
		}
	case WallClock:
		if s.holder == js && s.env.Now().Sub(s.intervalStart) >= s.cfg.Quantum {
			s.rotate(js)
		}
	}
}

// nodeCost returns the profiled cost of n for job js, falling back to the
// node's nominal duration when no profile is attached.
func (s *Scheduler) nodeCost(js *jobState, n *graph.Node) time.Duration {
	if js.profile != nil && n.ID < len(js.profile.NodeCost) {
		return js.profile.NodeCost[n.ID]
	}
	return n.Duration
}

// threshold returns T_j for the job.
func (s *Scheduler) threshold(js *jobState) time.Duration {
	if js.profile != nil && js.profile.Threshold > 0 {
		return js.profile.Threshold
	}
	return s.cfg.Quantum
}

// rotate ends the holder's quantum and grants the next job.
func (s *Scheduler) rotate(current *jobState) {
	s.closeInterval(current)
	next := s.pick(current.job)
	if next == nil {
		return
	}
	s.switches++
	s.holder = nil
	if next != current && s.cfg.Mode == CostBased {
		// Olympian's gang switch drains the device and holds admission
		// briefly — the per-switch overhead that shapes the Overhead-Q
		// curve. The wall-clock strawman just flips the token: its
		// uncharged, un-drained overflow is exactly why it fails to
		// isolate GPU usage (Figure 19).
		s.dev.SwitchBarrier(s.cfg.SwitchCost)
	}
	s.grant(next)
}

// pick asks the policy for the next holder; its tie-breaks draw from the
// device's stack stream.
func (s *Scheduler) pick(last *executor.Job) *jobState {
	if len(s.jobs) == 0 {
		return nil
	}
	active := s.active[:0]
	for _, js := range s.jobs {
		active = append(active, js.job)
	}
	s.active = active
	chosen := s.cfg.Policy.Grant(s.dev.Rand(), active, last)
	if chosen == nil {
		return nil
	}
	return s.state(chosen)
}

// grant hands the token to js and wakes its gang.
func (s *Scheduler) grant(js *jobState) {
	s.holder = js
	s.intervalStart = s.env.Now()
	js.busySnapshot = js.job.Stream.Busy()
	js.cond.Broadcast()
}

// closeInterval stages the holder's just-finished interval.
// The GPU duration is finalized lazily — at the next hand-off or at the
// job's deregistration — so that overflow kernels that drain after the
// switch (Figures 10/15) are attributed to the quantum that launched them.
func (s *Scheduler) closeInterval(js *jobState) {
	s.finalizePending()
	now := s.env.Now()
	s.pending = QuantumRecord{
		Client:          js.job.Client,
		JobID:           js.job.ID,
		Start:           s.intervalStart,
		End:             now,
		ActiveJobs:      len(s.jobs),
		OverflowKernels: js.job.Stream.Active(),
	}
	s.pendingJob = js
}

// finalizePending completes the staged interval record and hands it to the
// OnQuantum observers: by the time the next hand-off happens, the previous
// holder's overflow kernels have drained, so its busy delta is final.
func (s *Scheduler) finalizePending() {
	if s.pendingJob == nil {
		return
	}
	s.pending.GPUDuration = s.pendingJob.job.Stream.Busy() - s.pendingJob.busySnapshot
	s.pendingJob = nil
	for _, fn := range s.onQuantum {
		fn(s.pending)
	}
}

// state finds the jobState for job, or nil if it is not registered.
func (s *Scheduler) state(job *executor.Job) *jobState {
	for _, js := range s.jobs {
		if js.job == job {
			return js
		}
	}
	return nil
}

// OnQuantum registers fn to run as each scheduling interval is finalized,
// in interval order. The scheduler keeps no record of its own.
func (s *Scheduler) OnQuantum(fn func(QuantumRecord)) { s.onQuantum = append(s.onQuantum, fn) }

// Flush finalizes an interval still staged, as when a run is cut short
// before the next hand-off, so the OnQuantum observers see every interval.
func (s *Scheduler) Flush() { s.finalizePending() }

// Switches returns the number of token hand-offs so far.
func (s *Scheduler) Switches() int { return s.switches }

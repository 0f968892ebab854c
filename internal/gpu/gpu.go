// Package gpu simulates a GPU device and its driver-level kernel scheduler.
//
// The device reproduces the property of real GPU drivers that motivates the
// Olympian paper: kernels are dispatched with no knowledge of which DNN job
// they belong to, so concurrent jobs' kernels interleave in driver-chosen
// order and per-job completion times become unpredictable. Each client
// session submits on its own stream (FIFO within a stream, as in CUDA); when
// capacity frees, the driver picks among the stream heads that fit, weighted
// by an opaque per-stream service bias drawn per run — the stand-in for the
// hardware/driver scheduling asymmetry behind the paper's Figure 3, where
// identical jobs finish up to 1.7x apart. A stream whose head kernel does
// not fit blocks younger submissions from being admitted past it once it is
// the oldest waiter, so large kernels cannot be starved by streams of small
// ones.
//
// Streams are cheap: the serving layer opens one per batch, so a device
// sees thousands over a run. The device remembers every stream it has seen,
// to keep its weight, but dispatch looks only at the busy streams (those
// with queued kernels), kept in first-seen order. A pick therefore costs
// time in the number of busy streams, and it draws exactly what a scan over
// every stream in first-seen order would. Exec, the blocking submit the
// executor, the LLM server and the profiler use, recycles kernels and their
// timers through a per-device free list, so steady-state dispatch allocates
// nothing. A kernel failed by a crash is never recycled: its timers may
// still be pending.
//
// Capacity is modelled as SM occupancy: each kernel occupies a fraction of
// the device in (0,1], and kernels run concurrently while they fit
// (large-batch kernels occupy the whole device, which is why the paper finds
// little room for spatial multiplexing).
//
// The device also keeps the paper's accounting primitives: the per-job "GPU
// duration" (the union of intervals during which at least one of the job's
// kernels is resident — Figure 5), total busy time for utilization, and
// device-memory allocation for the scalability experiments.
package gpu

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"olympian/internal/faults"
	"olympian/internal/obs"
	"olympian/internal/sim"
)

// Spec describes a GPU hardware platform.
type Spec struct {
	// Name identifies the platform, e.g. "gtx-1080ti".
	Name string
	// ClockScale divides kernel durations: 1.0 is the reference platform,
	// larger is faster.
	ClockScale float64
	// Capacity is total SM occupancy, normally 1.0.
	Capacity float64
	// LaunchLatency is the driver overhead added to each kernel.
	LaunchLatency time.Duration
	// MemoryBytes is usable device memory.
	MemoryBytes int64
	// StreamBias is the sigma of the lognormal per-stream service weight
	// drawn once per (run, stream): the opaque driver scheduling asymmetry.
	// Zero means all streams are served with equal probability.
	StreamBias float64
}

// The two hardware platforms of the paper's evaluation: the primary GeForce
// GTX 1080 Ti and the NVIDIA Titan X used for the portability experiment
// (Figure 21).
var (
	GTX1080Ti = Spec{
		Name:          "gtx-1080ti",
		ClockScale:    1.0,
		Capacity:      1.0,
		LaunchLatency: 4 * time.Microsecond,
		MemoryBytes:   11 << 30,
		StreamBias:    0.18,
	}
	TitanX = Spec{
		Name:          "titan-x",
		ClockScale:    0.82,
		Capacity:      1.0,
		LaunchLatency: 5 * time.Microsecond,
		MemoryBytes:   12 << 30,
		StreamBias:    0.18,
	}
)

// Kernel is one unit of GPU work submitted by the middleware.
type Kernel struct {
	// Owner is the job the kernel belongs to. The device does not act on
	// it (the driver is DNN-unaware); it is used only for accounting.
	Owner int
	// Stream is the submission stream (one per client session). FIFO order
	// holds within a stream only.
	Stream int
	// Duration is the kernel's reference execution time.
	Duration time.Duration
	// Occupancy is the SM fraction required, in (0,1].
	Occupancy float64
	// Done fires when the kernel completes.
	Done *sim.Event
	// Err is set before Done fires when the kernel failed transiently
	// (injected device fault). The kernel still occupied the device for its
	// full duration; the submitter decides whether to retry.
	Err error

	seq      uint64
	queuedAt sim.Time

	// ep is the device epoch at dispatch. The launch and execution timers
	// compare it with the device's epoch when they fire, so a crash (which
	// bumps the epoch) turns the timers of every kernel it failed into
	// no-ops. Both timers are built once per Kernel, on its first dispatch,
	// and reused when Exec recycles it.
	ep       uint64
	launched func()
	executed func()

	// Lifecycle spans covering the launch/H2D phase and the execution
	// phase; zero (no-op) when the device has no recorder.
	launchSpan obs.SpanID
	execSpan   obs.SpanID
}

// Stats is a snapshot of device counters.
type Stats struct {
	KernelsRun  int
	TotalBusy   time.Duration
	QueuePeak   int
	MemoryInUse int64
	MemoryPeak  int64
	ActiveNow   int
	// KernelFaults counts kernels completed with an injected transient
	// failure.
	KernelFaults int
	// Crashes counts device crashes fired; Revives counts completed
	// restarts (crash + recovery delay + warm-up). Downtime is accumulated
	// unschedulable time up to the snapshot, including any open outage.
	Crashes  int
	Revives  int
	Downtime time.Duration
}

// stream is one submission queue.
type stream struct {
	id     int
	rank   int // first-seen order among the device's streams
	queue  []*Kernel
	weight float64
}

// Device is a simulated GPU.
type Device struct {
	env  *sim.Env
	spec Spec
	rng  *rand.Rand // nil: fall back to the environment's shared source

	// Stream bookkeeping. streams holds every stream ever seen, so each
	// keeps the weight drawn on its first use. busy holds only the streams
	// with queued kernels, in first-seen (rank) order; dispatch reads only
	// busy. cands is pump's reused candidate list.
	streams     map[int]*stream
	busy        []*stream
	cands       []*stream
	free        []*Kernel // Exec's recycled kernels
	queued      int
	inUse       float64
	active      int // kernels in their execution phase
	outstanding int // kernels dispatched and not yet finished
	subSeq      uint64

	ownerActive map[int]int
	ownerStart  map[int]sim.Time
	ownerBusy   map[int]time.Duration
	ownerCount  map[int]int

	globalStart sim.Time
	globalBusy  time.Duration
	occupancyNs float64 // sum of occupancy * execution time

	// Gang-switch admission barrier: while pending, no new kernels are
	// dispatched; once the device drains, admission stays closed until
	// barrierAt.
	barrierDur time.Duration
	barrierAt  sim.Time

	// Fault injection: while stalled (driver wedge), admission is closed
	// but resident kernels keep executing; completing kernels may be failed
	// transiently by the injector.
	inj        *faults.Injector
	stallUntil sim.Time
	stallArmed bool
	onStall    func(until sim.Time)

	// Crash/recovery lifecycle. While dead (which includes the warm-up
	// phase of a restart) the device admits nothing: submissions fail fast
	// with faults.ErrDeviceCrashed. epoch invalidates every already-
	// scheduled launch/execute/finish closure from before the crash, and
	// resident lists the kernels those closures would have completed so the
	// crash can fail them inline instead.
	dead          bool
	warming       bool
	epoch         uint64
	resident      []*Kernel
	downSince     sim.Time
	downtime      time.Duration // closed outage intervals
	recoveredDown time.Duration // downtime of completed recoveries (MTTR numerator)
	crashes       int
	revives       int
	onCrash       func(recovery time.Duration)
	onReady       func()

	memUsed int64
	stats   Stats

	// Observability: nil recorder = disabled fast path.
	rec      *obs.Recorder
	obsDev   int
	kernelsC *obs.Series
	faultsC  *obs.Series
	stallsC  *obs.Series
	crashesC *obs.Series
	revivesC *obs.Series
}

// New returns an idle device with the given spec attached to env.
func New(env *sim.Env, spec Spec) *Device {
	if spec.ClockScale <= 0 {
		spec.ClockScale = 1.0
	}
	if spec.Capacity <= 0 {
		spec.Capacity = 1.0
	}
	return &Device{
		env:         env,
		spec:        spec,
		streams:     make(map[int]*stream),
		ownerActive: make(map[int]int),
		ownerStart:  make(map[int]sim.Time),
		ownerBusy:   make(map[int]time.Duration),
		ownerCount:  make(map[int]int),
	}
}

// Spec returns the device's hardware description.
func (d *Device) Spec() Spec { return d.spec }

// Observe attaches a lifecycle recorder, identifying this device as index
// device in the recorder's track layout. A nil recorder keeps the disabled
// fast path. Call before the run starts.
func (d *Device) Observe(r *obs.Recorder, device int) {
	d.rec, d.obsDev = r, device
	reg := r.Registry()
	dev := strconv.Itoa(device)
	d.kernelsC = reg.Counter("olympian_gpu_kernels_total", "Kernels dispatched.", "device", dev)
	d.faultsC = reg.Counter("olympian_gpu_kernel_faults_total", "Kernels completed with an injected transient fault.", "device", dev)
	d.stallsC = reg.Counter("olympian_gpu_stalls_total", "Injected driver stalls.", "device", dev)
	d.crashesC = reg.Counter("olympian_gpu_crashes_total", "Device crashes fired.", "device", dev)
	d.revivesC = reg.Counter("olympian_gpu_revives_total", "Device restarts completed (warm-up done).", "device", dev)
}

// Submit enqueues a kernel on its stream; the driver dispatches it when
// capacity allows. It returns the kernel's completion event. A Kernel
// belongs to the first device it is dispatched on: its timers are bound to
// that device.
func (d *Device) Submit(k *Kernel) *sim.Event {
	if k.Done == nil {
		k.Done = d.env.NewEvent()
	}
	if d.dead {
		// Fail fast: a dead (or still warming) device queues nothing, so the
		// executor can abort the job immediately instead of wedging on a
		// completion that will never come.
		k.Err = faults.ErrDeviceCrashed
		k.Done.Trigger()
		return k.Done
	}
	if k.Occupancy <= 0 || k.Occupancy > d.spec.Capacity {
		k.Occupancy = d.spec.Capacity
	}
	d.subSeq++
	k.seq = d.subSeq
	k.queuedAt = d.env.Now()
	st := d.streams[k.Stream]
	if st == nil {
		st = &stream{id: k.Stream, rank: len(d.streams), weight: d.drawWeight()}
		d.streams[k.Stream] = st
	}
	if len(st.queue) == 0 {
		d.markBusy(st)
	}
	st.queue = append(st.queue, k)
	d.queued++
	if d.queued > d.stats.QueuePeak {
		d.stats.QueuePeak = d.queued
	}
	d.armStall()
	d.pump()
	return k.Done
}

// Exec submits a kernel with k's Owner, Stream, Duration and Occupancy and
// blocks p until it completes, returning its error. It is the allocation-free
// form of Submit followed by Done.Wait: the submitted *Kernel comes from a
// per-device free list and goes back to it afterwards. A kernel failed by a
// crash is never recycled, because its launch or execution timer may still
// be pending and would fire into the kernel's next use.
func (d *Device) Exec(p *sim.Proc, k Kernel) error {
	pk := d.newKernel()
	pk.Owner, pk.Stream, pk.Duration, pk.Occupancy = k.Owner, k.Stream, k.Duration, k.Occupancy
	d.Submit(pk)
	pk.Done.Wait(p)
	err := pk.Err
	if !errors.Is(err, faults.ErrDeviceCrashed) {
		d.free = append(d.free, pk)
	}
	return err
}

// newKernel takes a kernel from the free list, re-armed, or makes one.
func (d *Device) newKernel() *Kernel {
	n := len(d.free)
	if n == 0 {
		return &Kernel{Done: d.env.NewEvent()}
	}
	k := d.free[n-1]
	d.free[n-1] = nil
	d.free = d.free[:n-1]
	k.Err = nil
	k.Done.Reset()
	return k
}

// markBusy inserts st into the busy list at its first-seen position. New
// streams have the highest rank, so the common case is an append.
func (d *Device) markBusy(st *stream) {
	i := len(d.busy)
	for i > 0 && d.busy[i-1].rank > st.rank {
		i--
	}
	d.busy = append(d.busy, nil)
	copy(d.busy[i+1:], d.busy[i:])
	d.busy[i] = st
}

// unmarkBusy removes st, whose queue has just drained, from the busy list.
func (d *Device) unmarkBusy(st *stream) {
	for i, b := range d.busy {
		if b == st {
			n := copy(d.busy[i:], d.busy[i+1:])
			d.busy[i+n] = nil
			d.busy = d.busy[:i+n]
			return
		}
	}
}

// InjectFaults attaches a fault injector: completing kernels may fail
// transiently, the driver may stall (admission closes while resident kernels
// keep running), and the injector's precomputed crash schedule is armed on
// the device's own environment. Call it once, before the run starts.
func (d *Device) InjectFaults(in *faults.Injector) {
	d.inj = in
	for _, ce := range in.CrashSchedule() {
		ce := ce
		d.env.ScheduleAt(sim.Time(ce.At), func() { d.crash(ce.Recovery) })
	}
}

// SetCrashObserver registers a callback invoked when the device crashes,
// with the planned recovery delay (0 = permanent). The cluster uses it to
// drain queued work and mark the replica dead at the router. It runs in
// event-loop context, after every kernel has been failed, and must not
// block.
func (d *Device) SetCrashObserver(fn func(recovery time.Duration)) { d.onCrash = fn }

// SetReadyObserver registers a callback invoked when a crashed device
// finishes its restart warm-up and is schedulable again. The cluster uses it
// to re-admit the replica at the router.
func (d *Device) SetReadyObserver(fn func()) { d.onReady = fn }

// Dead reports whether the device is crashed or still warming up — in either
// state it admits no kernels.
func (d *Device) Dead() bool { return d.dead }

// Warming reports whether the device is in the warm-up phase of a restart.
func (d *Device) Warming() bool { return d.warming }

// Crashes returns how many crashes have fired; Revives how many restarts
// completed.
func (d *Device) Crashes() int { return d.crashes }

// Revives returns how many restarts completed (warm-up done).
func (d *Device) Revives() int { return d.revives }

// DowntimeAt returns the accumulated unschedulable time up to now: every
// closed outage interval plus the open one, if the device is currently down.
// Callers pass their own clock (the cluster passes the shard horizon) so
// both engines normalize identically.
func (d *Device) DowntimeAt(now sim.Time) time.Duration {
	down := d.downtime
	if d.dead && now > d.downSince {
		down += now.Sub(d.downSince)
	}
	return down
}

// MTTR returns the mean time to recovery over completed restarts: crash to
// schedulable again, including the recovery delay and the warm-up copy. Zero
// with no completed recoveries.
func (d *Device) MTTR() time.Duration {
	if d.revives == 0 {
		return 0
	}
	return d.recoveredDown / time.Duration(d.revives)
}

// crash kills the device at the current instant: every queued and resident
// kernel fails with faults.ErrDeviceCrashed, busy accounting closes its open
// intervals, and already-scheduled launch/finish closures are invalidated by
// the epoch bump. A crash while already down is absorbed — the device cannot
// get deader.
func (d *Device) crash(recovery time.Duration) {
	if d.dead {
		return
	}
	now := d.env.Now()
	d.epoch++
	d.dead = true
	d.warming = false
	d.downSince = now
	d.crashes++
	d.stats.Crashes++
	d.crashesC.Inc()
	d.rec.Instant(obs.LayerGPU, "crash", obs.NoReq, obs.NoClass, d.obsDev, int64(d.crashes))
	// Close the open busy intervals: execution stops instantly.
	if d.active > 0 {
		d.globalBusy += now.Sub(d.globalStart)
	}
	for owner, n := range d.ownerActive {
		if n > 0 {
			d.ownerBusy[owner] += now.Sub(d.ownerStart[owner])
			d.ownerActive[owner] = 0
		}
	}
	d.active = 0
	d.outstanding = 0
	d.inUse = 0
	// The admission barrier dies with the device; a restart begins clean.
	d.barrierDur = 0
	d.barrierAt = 0
	// Fail resident kernels (dispatch order), then queued ones (stream
	// first-seen order, FIFO within each): a deterministic unwind sequence
	// both engines replay identically.
	res := d.resident
	d.resident = nil
	for _, k := range res {
		if k.execSpan != 0 {
			d.rec.EndSpan(k.execSpan)
		} else {
			d.rec.EndSpan(k.launchSpan)
		}
		k.Err = faults.ErrDeviceCrashed
		k.Done.Trigger()
	}
	for _, st := range d.busy {
		for i, k := range st.queue {
			k.Err = faults.ErrDeviceCrashed
			k.Done.Trigger()
			st.queue[i] = nil
		}
		st.queue = st.queue[:0]
	}
	clear(d.busy)
	d.busy = d.busy[:0]
	d.queued = 0
	if d.onCrash != nil {
		d.onCrash(recovery)
	}
}

// Revive begins a crashed device's restart: after warmup (the modeled H2D
// weight re-copy) the device is schedulable again and the ready observer
// fires. A no-op unless the device is dead and not already warming; a crash
// landing during warm-up is absorbed like any crash on a dead device.
func (d *Device) Revive(warmup time.Duration) {
	if !d.dead || d.warming {
		return
	}
	d.warming = true
	if warmup < 0 {
		warmup = 0
	}
	d.rec.Span(obs.LayerGPU, "warmup", obs.NoReq, obs.NoClass, d.obsDev, d.env.Now(), d.env.Now().Add(warmup), 0)
	ep := d.epoch
	d.env.Schedule(warmup, func() {
		if d.epoch != ep || !d.warming {
			return
		}
		d.ready()
	})
}

// ready completes a restart: downtime is booked, the device reopens, and the
// ready observer fires before the pump runs (there is nothing queued yet —
// submissions while dead failed fast).
func (d *Device) ready() {
	now := d.env.Now()
	outage := now.Sub(d.downSince)
	d.downtime += outage
	d.recoveredDown += outage
	d.warming = false
	d.dead = false
	d.revives++
	d.stats.Revives++
	d.revivesC.Inc()
	d.rec.Instant(obs.LayerGPU, "ready", obs.NoReq, obs.NoClass, d.obsDev, int64(d.revives))
	if d.onReady != nil {
		d.onReady()
	}
	d.pump()
}

// SetRand gives the device a private random source in place of the
// environment's shared one. A sharded cluster isolates each device stack's
// draws this way so that the draw sequence depends only on the device's own
// event order — a prerequisite for engine-independent determinism.
func (d *Device) SetRand(r *rand.Rand) { d.rng = r }

// rand returns the device's random source.
func (d *Device) rand() *rand.Rand {
	if d.rng != nil {
		return d.rng
	}
	return d.env.Rand()
}

// SetStallObserver registers a callback invoked at the start of each
// injected driver stall with the time at which admission reopens. A cluster
// router uses it to drain the device and fail requests over to surviving
// replicas. The callback runs in event-loop context and must not block.
func (d *Device) SetStallObserver(fn func(until sim.Time)) { d.onStall = fn }

// Stalled reports whether an injected driver stall currently blocks kernel
// admission.
func (d *Device) Stalled() bool { return d.stalled() }

// armStall schedules the next injected driver stall, if the injector plans
// stalls and none is pending. The stall chain is re-armed only while the
// device has work, so an idle device's event queue still drains and the run
// can end.
func (d *Device) armStall() {
	if d.inj == nil || d.stallArmed || d.dead {
		return
	}
	wait, dur, ok := d.inj.NextStall()
	if !ok {
		return
	}
	d.stallArmed = true
	d.env.Schedule(wait, func() {
		d.stallArmed = false
		if d.dead {
			// The device crashed while the stall was pending: a dead driver
			// cannot wedge. The chain re-arms on the first post-revive submit.
			return
		}
		until := d.env.Now().Add(dur)
		if until > d.stallUntil {
			d.stallUntil = until
		}
		d.rec.Span(obs.LayerGPU, "stall", obs.NoReq, obs.NoClass, d.obsDev, d.env.Now(), d.stallUntil, 0)
		d.stallsC.Inc()
		if d.onStall != nil {
			d.onStall(d.stallUntil)
		}
		d.env.Schedule(dur, func() { d.pump() })
		if d.queued > 0 || d.outstanding > 0 {
			d.armStall()
		}
	})
}

// stalled reports whether an injected driver stall currently blocks
// admission.
func (d *Device) stalled() bool { return d.env.Now() < d.stallUntil }

// drawWeight samples the stream's service weight.
func (d *Device) drawWeight() float64 {
	if d.spec.StreamBias <= 0 {
		return 1
	}
	return math.Exp(d.rand().NormFloat64() * d.spec.StreamBias)
}

// SwitchBarrier models the cost of a gang switch at the device: kernels
// already running finish normally (the paper's overflow, Figures 10/15),
// but no new kernels are admitted until the device has drained and a
// further `dur` of switch time has elapsed. Calling it again before the
// previous barrier resolves restarts the barrier.
func (d *Device) SwitchBarrier(dur time.Duration) {
	if dur <= 0 {
		return
	}
	d.barrierDur = dur
	d.barrierAt = 0
	if d.outstanding == 0 {
		d.armBarrier()
	}
}

// armBarrier starts the post-drain hold and schedules the pump that will
// reopen admission.
func (d *Device) armBarrier() {
	d.barrierAt = d.env.Now().Add(d.barrierDur)
	d.env.Schedule(d.barrierDur, func() { d.pump() })
}

// barrierClosed reports whether the admission barrier currently blocks
// dispatch, clearing it once it has expired.
func (d *Device) barrierClosed() bool {
	if d.barrierDur == 0 {
		return false
	}
	if d.barrierAt == 0 {
		return true // draining
	}
	if d.env.Now() < d.barrierAt {
		return true // holding
	}
	d.barrierDur = 0
	d.barrierAt = 0
	return false
}

// maxBypassWait bounds how long younger kernels may be dispatched past an
// older kernel that does not fit. Within the window, small kernels from
// other streams keep flowing around a draining full-occupancy kernel (the
// driver's spatial multiplexing); past it, admission stops so large kernels
// cannot be starved.
const maxBypassWait = 200 * time.Microsecond

// pump dispatches queued kernels: pick among fitting stream heads with
// probability proportional to stream weight, subject to the bypass window
// around the oldest waiting kernel.
func (d *Device) pump() {
	const eps = 1e-9
	if d.dead || d.barrierClosed() || d.stalled() {
		return
	}
	for len(d.busy) > 0 {
		oldest := d.busy[0]
		for _, st := range d.busy[1:] {
			if st.queue[0].seq < oldest.queue[0].seq {
				oldest = st
			}
		}
		head := oldest.queue[0]
		if d.inUse+head.Occupancy > d.spec.Capacity+eps &&
			d.env.Now().Sub(head.queuedAt) >= maxBypassWait {
			return // age barrier: wait for drain
		}
		// Candidates: stream heads that fit, in first-seen order.
		cands := d.cands[:0]
		total := 0.0
		for _, st := range d.busy {
			if d.inUse+st.queue[0].Occupancy <= d.spec.Capacity+eps {
				cands = append(cands, st)
				total += st.weight
			}
		}
		d.cands = cands
		if len(cands) == 0 {
			return // within the bypass window but nothing fits yet
		}
		pick := cands[0]
		if len(cands) > 1 {
			r := d.rand().Float64() * total
			for _, st := range cands {
				r -= st.weight
				if r < 0 {
					pick = st
					break
				}
			}
		}
		// Shift rather than reslice, so the queue's backing array is reused
		// once the stream drains and refills.
		k := pick.queue[0]
		n := copy(pick.queue, pick.queue[1:])
		pick.queue[n] = nil
		pick.queue = pick.queue[:n]
		if n == 0 {
			d.unmarkBusy(pick)
		}
		d.queued--
		d.begin(k)
	}
}

// begin reserves capacity and starts the kernel's launch phase. The SM
// slot is held from dispatch, but busy time (and hence GPU duration and
// utilization) counts only execution: the launch latency is idle time the
// GPU spends waiting on the driver, one of the paper's utilization sinks.
func (d *Device) begin(k *Kernel) {
	d.inUse += k.Occupancy
	d.outstanding++
	d.stats.KernelsRun++
	d.ownerCount[k.Owner]++
	d.kernelsC.Inc()
	k.launchSpan = d.rec.StartSpan(obs.LayerGPU, "h2d", k.Owner, obs.NoClass, d.obsDev, int64(k.Stream))
	// A recycled kernel still holds its previous use's span; crash() must
	// not mistake it for this use's.
	k.execSpan = 0
	d.resident = append(d.resident, k)
	k.ep = d.epoch
	if k.launched == nil {
		k.launched = func() {
			if k.ep == d.epoch {
				d.execStart(k)
			}
		}
		k.executed = func() {
			if k.ep == d.epoch {
				d.finish(k)
			}
		}
	}
	d.env.Schedule(d.spec.LaunchLatency, k.launched)
}

func (d *Device) execStart(k *Kernel) {
	now := d.env.Now()
	d.rec.EndSpan(k.launchSpan)
	k.execSpan = d.rec.StartSpan(obs.LayerGPU, "kernel", k.Owner, obs.NoClass, d.obsDev, int64(k.Stream))
	d.occupancyNs += k.Occupancy * float64(k.Duration) / d.spec.ClockScale
	d.active++
	if d.active == 1 {
		d.globalStart = now
	}
	if d.ownerActive[k.Owner] == 0 {
		d.ownerStart[k.Owner] = now
	}
	d.ownerActive[k.Owner]++
	d.env.Schedule(time.Duration(float64(k.Duration)/d.spec.ClockScale), k.executed)
}

func (d *Device) finish(k *Kernel) {
	now := d.env.Now()
	d.inUse -= k.Occupancy
	if d.inUse < 0 {
		d.inUse = 0
	}
	d.active--
	d.outstanding--
	if d.active == 0 {
		d.globalBusy += now.Sub(d.globalStart)
	}
	d.ownerActive[k.Owner]--
	if d.ownerActive[k.Owner] == 0 {
		d.ownerBusy[k.Owner] += now.Sub(d.ownerStart[k.Owner])
	}
	if d.outstanding == 0 && d.barrierDur > 0 && d.barrierAt == 0 {
		d.armBarrier()
	}
	for i, r := range d.resident {
		if r == k {
			d.resident = append(d.resident[:i], d.resident[i+1:]...)
			break
		}
	}
	d.rec.EndSpan(k.execSpan)
	if d.inj.KernelFails() {
		k.Err = faults.ErrKernelFault
		d.stats.KernelFaults++
		d.faultsC.Inc()
		d.rec.Instant(obs.LayerGPU, "kernel_fault", k.Owner, obs.NoClass, d.obsDev, int64(k.Stream))
	}
	k.Done.Trigger()
	d.pump()
}

// OwnerBusy returns job owner's accumulated GPU duration (the Figure 5
// union of busy intervals), including any interval still open.
func (d *Device) OwnerBusy(owner int) time.Duration {
	busy := d.ownerBusy[owner]
	if d.ownerActive[owner] > 0 {
		busy += d.env.Now().Sub(d.ownerStart[owner])
	}
	return busy
}

// OwnerKernels returns how many kernels owner has completed or started.
func (d *Device) OwnerKernels(owner int) int { return d.ownerCount[owner] }

// ActiveKernels returns the number of owner's kernels currently resident —
// nonzero for a job that has just been switched out means quantum overflow
// (Figure 15).
func (d *Device) ActiveKernels(owner int) int { return d.ownerActive[owner] }

// StreamWeight returns the service weight drawn for a stream (1.0 before
// the stream's first submission).
func (d *Device) StreamWeight(streamID int) float64 {
	if st := d.streams[streamID]; st != nil {
		return st.weight
	}
	return 1
}

// OccupancyTime returns accumulated SM occupancy-time: the integral of
// kernel occupancy over execution time. OccupancyTime/elapsed is the SM
// efficiency — unlike busy-union utilization it exposes capacity wasted by
// running low-occupancy kernels exclusively.
func (d *Device) OccupancyTime() time.Duration { return time.Duration(d.occupancyNs) }

// TotalBusy returns the union of all busy intervals so far, including any
// open interval. Utilization over a window is TotalBusy delta / wall delta.
func (d *Device) TotalBusy() time.Duration {
	busy := d.globalBusy
	if d.active > 0 {
		busy += d.env.Now().Sub(d.globalStart)
	}
	return busy
}

// QueueLen returns the number of kernels waiting for dispatch.
func (d *Device) QueueLen() int { return d.queued }

// Active returns the number of kernels currently resident.
func (d *Device) Active() int { return d.active }

// ErrOutOfMemory is Alloc's answer when a reservation does not fit. It is a
// fixed value so that callers probing for room (KV growth under pressure
// fails on most decode steps) pay no formatting or allocation for the miss.
var ErrOutOfMemory = errors.New("gpu: out of memory")

// Alloc reserves device memory, returning ErrOutOfMemory when the device is
// full.
func (d *Device) Alloc(bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("gpu %s: negative allocation %d", d.spec.Name, bytes)
	}
	if d.memUsed+bytes > d.spec.MemoryBytes {
		return ErrOutOfMemory
	}
	d.memUsed += bytes
	if d.memUsed > d.stats.MemoryPeak {
		d.stats.MemoryPeak = d.memUsed
	}
	return nil
}

// Free releases device memory.
func (d *Device) Free(bytes int64) {
	d.memUsed -= bytes
	if d.memUsed < 0 {
		d.memUsed = 0
	}
}

// MemoryInUse returns current device-memory usage.
func (d *Device) MemoryInUse() int64 { return d.memUsed }

// Stats returns a snapshot of device counters.
func (d *Device) Stats() Stats {
	s := d.stats
	s.TotalBusy = d.TotalBusy()
	s.MemoryInUse = d.memUsed
	s.ActiveNow = d.active
	s.Downtime = d.DowntimeAt(d.env.Now())
	return s
}

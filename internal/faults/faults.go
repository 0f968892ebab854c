// Package faults is the deterministic fault-injection plane of the
// reproduction: a seeded source of runtime disturbances — transient kernel
// failures, device stalls, job aborts, and arrival bursts — that the gpu,
// executor, and serving layers consult at well-defined points.
//
// Determinism is the whole point (cf. Revati's GPU-free time-warp emulation,
// PAPERS.md): because the simulation kernel executes events in a fixed
// (time, sequence) order, every layer queries the injector in the same order
// on every run, and each fault class draws from its own seeded random
// stream. Two runs with the same seed therefore inject byte-identical fault
// sequences, so chaos experiments are as reproducible as fault-free ones.
//
// The package deliberately depends on nothing above the simulation
// substrate; higher layers (gpu, executor, serving, workload) accept an
// optional *Injector and call it at their fault points.
package faults

import (
	"errors"
	"math/rand"
	"sort"
	"time"

	"olympian/internal/sim"
)

// Injected fault errors, distinguishable by callers via errors.Is.
var (
	// ErrKernelFault marks a transient device-side kernel failure: the
	// kernel occupied the device for its full duration but produced no
	// result (an ECC error, a sticky launch failure).
	ErrKernelFault = errors.New("faults: transient kernel fault")
	// ErrJobAborted marks a job killed at a yield point (client disconnect,
	// process crash) — the gang must unwind without wedging the scheduler.
	ErrJobAborted = errors.New("faults: job aborted")
	// ErrDeviceCrashed marks a kernel killed by a device crash. Unlike
	// ErrKernelFault it is not transient: retrying against the dead device
	// is pointless, so the executor aborts the job immediately and the
	// serving layer converts the riders into drain failures the cluster can
	// re-dispatch.
	ErrDeviceCrashed = errors.New("faults: device crashed")
)

// CrashEvent is one scheduled device crash. Recovery is the delay before the
// device begins its restart warm-up; zero makes the crash permanent.
type CrashEvent struct {
	At       time.Duration `json:"at"`
	Recovery time.Duration `json:"recovery"`
}

// Window is one scheduled router<->device partition: the front-end routes
// around the device between From and From+Dur, but — unlike a stall or a
// crash — nothing on the device is drained or killed; in-flight work keeps
// executing and completes normally.
type Window struct {
	From time.Duration `json:"from"`
	Dur  time.Duration `json:"dur"`
}

// Plan configures which faults are injected and how often. The zero value
// injects nothing.
type Plan struct {
	// KernelFailRate is the per-kernel probability of a transient failure
	// in (0,1). Failed kernels run to completion but deliver an error.
	KernelFailRate float64
	// StallEvery is the mean interval between device stalls (0 disables).
	// Stall arrivals are exponentially distributed around it.
	StallEvery time.Duration
	// StallDur is how long each stall closes kernel admission; kernels
	// already resident keep running (the driver wedges, the SMs do not).
	StallDur time.Duration
	// AbortRate is the per-yield-point probability that the executing job
	// is aborted in (0,1). Yield points are per-node, so long jobs face
	// proportionally more abort draws, as a real crash window would.
	AbortRate float64
	// BurstEvery is the mean interval between arrival bursts at the
	// serving layer (0 disables).
	BurstEvery time.Duration
	// BurstDur is how long each burst lasts.
	BurstDur time.Duration
	// BurstFactor multiplies the offered arrival rate inside a burst
	// (values <= 1 disable bursts).
	BurstFactor float64

	// CrashEvery is the mean interval between device crashes (0 disables).
	// Crash arrival times are exponentially distributed around it and the
	// schedule is precomputed at New, so enabling crashes never perturbs the
	// other fault classes' draws.
	CrashEvery time.Duration
	// CrashRecovery is how long a crashed device stays down before it begins
	// its restart warm-up; 0 makes every generated crash permanent.
	CrashRecovery time.Duration
	// MaxCrashes caps the generated crash schedule (default 1 when
	// CrashEvery is set: a device usually dies once).
	MaxCrashes int
	// Crashes, when non-empty, is an explicit crash schedule that overrides
	// generation — the replayable form the chaos fuzzer's shrunk repros use.
	Crashes []CrashEvent

	// PartitionEvery is the mean interval between router<->device partition
	// windows (0 disables); PartitionDur is each window's length and
	// MaxPartitions caps the generated schedule (default 1).
	PartitionEvery time.Duration
	PartitionDur   time.Duration
	MaxPartitions  int
	// Partitions, when non-empty, is an explicit partition schedule that
	// overrides generation.
	Partitions []Window
}

// Enabled reports whether the plan injects any fault at all.
func (p Plan) Enabled() bool {
	return p.KernelFailRate > 0 || (p.StallEvery > 0 && p.StallDur > 0) ||
		p.AbortRate > 0 || (p.BurstEvery > 0 && p.BurstDur > 0 && p.BurstFactor > 1) ||
		p.CrashEvery > 0 || len(p.Crashes) > 0 ||
		(p.PartitionEvery > 0 && p.PartitionDur > 0) || len(p.Partitions) > 0
}

// Counters tallies injected faults; the metrics layer folds them into its
// degraded-mode accounting.
type Counters struct {
	KernelFaults int
	DeviceStalls int
	JobAborts    int
	Bursts       int
}

// burst is one precomputed arrival-burst window.
type burst struct {
	from, to sim.Time
}

// Injector is a per-run fault source. It is not safe for use from multiple
// runs; create one per simulation environment.
type Injector struct {
	plan Plan

	// Independent streams per fault class: drawing (or not drawing) kernel
	// faults never perturbs abort or stall sequences, so enabling one fault
	// class leaves the others' injection points unchanged.
	kernelRNG *rand.Rand
	abortRNG  *rand.Rand
	stallRNG  *rand.Rand
	burstRNG  *rand.Rand
	retryRNG  *rand.Rand

	bursts    []burst
	burstNext sim.Time // arrival time of the next burst to generate

	// Crash and partition schedules are precomputed at New from their own
	// seeded streams (absolute times, ascending), so consumers can read them
	// once at construction and schedule the events on any engine without
	// further draws — a prerequisite for cross-engine bit-identity.
	crashes    []CrashEvent
	partitions []Window

	counters Counters
}

// New returns an injector for plan whose draws are fully determined by seed.
func New(seed int64, plan Plan) *Injector {
	in := &Injector{
		plan:      plan,
		kernelRNG: rand.New(rand.NewSource(seed ^ 0x6b65726e)), // "kern"
		abortRNG:  rand.New(rand.NewSource(seed ^ 0x61626f72)), // "abor"
		stallRNG:  rand.New(rand.NewSource(seed ^ 0x7374616c)), // "stal"
		burstRNG:  rand.New(rand.NewSource(seed ^ 0x62757273)), // "burs"
		retryRNG:  rand.New(rand.NewSource(seed ^ 0x72657472)), // "retr"
	}
	in.crashes = generateCrashes(rand.New(rand.NewSource(seed^0x63726173)), plan)       // "cras"
	in.partitions = generatePartitions(rand.New(rand.NewSource(seed^0x70617274)), plan) // "part"
	return in
}

// generateCrashes materializes the plan's crash schedule: the explicit list
// when given, otherwise MaxCrashes (default 1) exponential arrivals.
func generateCrashes(rng *rand.Rand, plan Plan) []CrashEvent {
	if len(plan.Crashes) > 0 {
		out := append([]CrashEvent(nil), plan.Crashes...)
		sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
		return out
	}
	if plan.CrashEvery <= 0 {
		return nil
	}
	max := plan.MaxCrashes
	if max <= 0 {
		max = 1
	}
	var out []CrashEvent
	t := time.Duration(0)
	for i := 0; i < max; i++ {
		gap := time.Duration(rng.ExpFloat64() * float64(plan.CrashEvery))
		if gap < time.Microsecond {
			gap = time.Microsecond
		}
		t += gap
		out = append(out, CrashEvent{At: t, Recovery: plan.CrashRecovery})
		if plan.CrashRecovery <= 0 {
			break // permanent: later crashes could never fire
		}
		t += plan.CrashRecovery
	}
	return out
}

// generatePartitions materializes the plan's partition windows likewise.
func generatePartitions(rng *rand.Rand, plan Plan) []Window {
	if len(plan.Partitions) > 0 {
		out := append([]Window(nil), plan.Partitions...)
		sort.Slice(out, func(i, j int) bool { return out[i].From < out[j].From })
		return out
	}
	if plan.PartitionEvery <= 0 || plan.PartitionDur <= 0 {
		return nil
	}
	max := plan.MaxPartitions
	if max <= 0 {
		max = 1
	}
	var out []Window
	t := time.Duration(0)
	for i := 0; i < max; i++ {
		gap := time.Duration(rng.ExpFloat64() * float64(plan.PartitionEvery))
		if gap < time.Microsecond {
			gap = time.Microsecond
		}
		t += gap
		out = append(out, Window{From: t, Dur: plan.PartitionDur})
		t += plan.PartitionDur
	}
	return out
}

// CrashSchedule returns the precomputed crash events in time order. The gpu
// device schedules them on its own environment at construction; a nil
// injector has none.
func (in *Injector) CrashSchedule() []CrashEvent {
	if in == nil {
		return nil
	}
	return in.crashes
}

// PartitionWindows returns the precomputed partition windows in time order.
// The cluster front-end schedules them at construction; a nil injector has
// none.
func (in *Injector) PartitionWindows() []Window {
	if in == nil {
		return nil
	}
	return in.partitions
}

// RetryJitter draws a uniform [0,1) sample from the retry-backoff stream.
// Clients feed it to overload.Backoff so retry timing is de-synchronized
// within a run yet bit-identical across same-seed runs. A nil injector
// returns 0.5 (the jitter midpoint: plain exponential backoff).
func (in *Injector) RetryJitter() float64 {
	if in == nil {
		return 0.5
	}
	return in.retryRNG.Float64()
}

// Plan returns the injector's configuration.
func (in *Injector) Plan() Plan { return in.plan }

// KernelFails draws whether the next completing kernel fails transiently.
func (in *Injector) KernelFails() bool {
	if in == nil || in.plan.KernelFailRate <= 0 {
		return false
	}
	if in.kernelRNG.Float64() >= in.plan.KernelFailRate {
		return false
	}
	in.counters.KernelFaults++
	return true
}

// JobAborts draws whether the job at the current yield point is aborted.
func (in *Injector) JobAborts() bool {
	if in == nil || in.plan.AbortRate <= 0 {
		return false
	}
	if in.abortRNG.Float64() >= in.plan.AbortRate {
		return false
	}
	in.counters.JobAborts++
	return true
}

// NextStall draws the wait until the next device stall and its duration.
// ok is false when the plan injects no stalls.
func (in *Injector) NextStall() (wait, dur time.Duration, ok bool) {
	if in == nil || in.plan.StallEvery <= 0 || in.plan.StallDur <= 0 {
		return 0, 0, false
	}
	wait = time.Duration(in.stallRNG.ExpFloat64() * float64(in.plan.StallEvery))
	if wait < time.Microsecond {
		wait = time.Microsecond
	}
	in.counters.DeviceStalls++
	return wait, in.plan.StallDur, true
}

// RateFactor returns the arrival-rate multiplier at virtual time t: 1
// outside bursts, Plan.BurstFactor inside. Burst windows are generated
// lazily in time order from the burst stream, so the sequence depends only
// on the seed, not on query pattern.
func (in *Injector) RateFactor(t sim.Time) float64 {
	if in == nil || in.plan.BurstEvery <= 0 || in.plan.BurstDur <= 0 || in.plan.BurstFactor <= 1 {
		return 1
	}
	for in.burstNext <= t {
		gap := time.Duration(in.burstRNG.ExpFloat64() * float64(in.plan.BurstEvery))
		if gap < time.Microsecond {
			gap = time.Microsecond
		}
		from := in.burstNext.Add(gap)
		in.bursts = append(in.bursts, burst{from: from, to: from.Add(in.plan.BurstDur)})
		in.burstNext = from.Add(in.plan.BurstDur)
		in.counters.Bursts++
	}
	for i := len(in.bursts) - 1; i >= 0; i-- {
		b := in.bursts[i]
		if t >= b.from && t < b.to {
			return in.plan.BurstFactor
		}
		if b.to <= t {
			break
		}
	}
	return 1
}

// Counters returns a snapshot of injected-fault tallies.
func (in *Injector) Counters() Counters {
	if in == nil {
		return Counters{}
	}
	return in.counters
}

// Package olympian is a faithful, simulation-backed reproduction of
// "Olympian: Scheduling GPU Usage in a Deep Neural Network Model Serving
// System" (Middleware 2018).
//
// Olympian extends a TF-Serving-style model server so that concurrent DNN
// inference jobs share a single GPU predictably: the middleware time-slices
// GPU access at dataflow-node granularity, detects quantum expiry through
// offline-profiled cost accumulation (threshold T_j = Q*C_j/D_j), and
// switches between jobs by cooperatively suspending and resuming their CPU
// thread gangs. On top of that mechanism it offers fair sharing, weighted
// fair sharing and priority scheduling.
//
// Because no GPU or TensorFlow runtime is available to a pure-Go library,
// the entire stack is reproduced over a deterministic discrete-event
// simulation: a GPU device with driver-level FIFO stream scheduling, a
// dataflow executor with a shared thread pool, a calibrated model zoo
// (Inception-v4, GoogLeNet, AlexNet, VGG, ResNet-50/101/152), the Olympian
// scheduler, and its offline profiler. See DESIGN.md for the substitution
// argument and EXPERIMENTS.md for paper-vs-measured results.
//
// The quickest way in:
//
//	clients := olympian.HomogeneousClients(olympian.Inception, 100, 10, 10)
//	res, err := olympian.Simulate(olympian.Config{
//	    Scheduler: olympian.SchedulerOlympian,
//	    Policy:    olympian.FairPolicy(),
//	}, clients)
//	fmt.Println(res.FinishTimes())
package olympian

import (
	"fmt"
	"time"

	"olympian/internal/core"
	"olympian/internal/experiments"
	"olympian/internal/gpu"
	"olympian/internal/metrics"
	"olympian/internal/model"
	"olympian/internal/profiler"
	"olympian/internal/workload"
)

// Model names of the built-in zoo (the paper's seven DNNs).
const (
	Inception = model.Inception
	GoogLeNet = model.GoogLeNet
	AlexNet   = model.AlexNet
	VGG       = model.VGG
	ResNet50  = model.ResNet50
	ResNet101 = model.ResNet101
	ResNet152 = model.ResNet152
)

// Models returns the names of all built-in models.
func Models() []string { return model.Names() }

// GPUSpec describes a simulated GPU platform.
type GPUSpec = gpu.Spec

// The evaluation platforms.
var (
	// GTX1080Ti is the paper's primary platform.
	GTX1080Ti = gpu.GTX1080Ti
	// TitanX is the paper's portability platform (Figure 21).
	TitanX = gpu.TitanX
)

// Scheduler selects the middleware scheduler.
type Scheduler = workload.SchedulerKind

// Scheduler kinds.
const (
	// SchedulerTFServing is the vanilla baseline: the GPU driver's FIFO is
	// the only scheduler.
	SchedulerTFServing = workload.Vanilla
	// SchedulerOlympian is the paper's system: profiled, cost-accumulating
	// middleware time-slicing.
	SchedulerOlympian = workload.Olympian
	// SchedulerCPUTimer is the Figure 19 strawman: wall-clock time-slicing.
	SchedulerCPUTimer = workload.WallClockSlicing
	// SchedulerKernelSlicing is the related-work baseline: Olympian's
	// policies over kernels split into sub-kernel slices, paying a
	// preemption penalty per slice.
	SchedulerKernelSlicing = workload.KernelSlicing
)

// Policy decides which job receives each quantum.
type Policy = core.Policy

// FairPolicy returns round-robin fair sharing (one quantum per job).
func FairPolicy() Policy { return core.NewFair() }

// WeightedFairPolicy returns weighted fair sharing: each job receives
// Weight consecutive quanta per turn.
func WeightedFairPolicy() Policy { return core.NewWeightedFair() }

// PriorityPolicy returns strict priority scheduling with round-robin within
// the top tier.
func PriorityPolicy() Policy { return core.NewPriority() }

// LotteryPolicy returns probabilistic weighted sharing (paper §7 extension).
func LotteryPolicy() Policy { return core.NewLottery() }

// DeficitRoundRobinPolicy returns deficit-round-robin weighted sharing
// (paper §7 extension).
func DeficitRoundRobinPolicy() Policy { return core.NewDeficitRR() }

// EDFPolicy returns earliest-deadline-first scheduling driven by each
// client's Deadline (paper §7 extension). Deadline-less clients share the
// GPU round-robin whenever no deadline-bearing job is active.
func EDFPolicy() Policy { return core.NewEDF() }

// Client describes one closed-loop client: Batches sequential inference
// requests of the given model and batch size, with optional weight,
// priority and arrival offset.
type Client = workload.ClientSpec

// HomogeneousClients builds n identical clients, the paper's default
// workload shape.
func HomogeneousClients(modelName string, batchSize, batches, n int) []Client {
	clients := make([]Client, n)
	for i := range clients {
		clients[i] = Client{Model: modelName, Batch: batchSize, Batches: batches}
	}
	return clients
}

// Config parameterises a simulation.
type Config struct {
	// Scheduler defaults to SchedulerTFServing.
	Scheduler Scheduler
	// Policy applies to SchedulerOlympian (default: fair).
	Policy Policy
	// Quantum is Q (default 1.2ms). Use ChooseQuantum to derive it from an
	// overhead tolerance as the paper's operators do.
	Quantum time.Duration
	// GPU defaults to GTX1080Ti.
	GPU GPUSpec
	// Seed drives all randomness (default 1).
	Seed int64
	// ReserveMemory admits clients only while their model fits in device
	// memory.
	ReserveMemory bool
	// QueueOnMemory, with ReserveMemory, queues clients for memory instead
	// of rejecting them.
	QueueOnMemory bool
	// ThreadPoolSize caps each device's shared CPU thread pool (0 =
	// default).
	ThreadPoolSize int
	// GPUs is the number of simulated devices (the paper's §7 multi-GPU
	// future-work item; 0 or 1 = one). Each device has its own scheduler,
	// and clients are placed on the device with the least model memory.
	GPUs int
}

// Result is the outcome of a simulation.
type Result struct {
	inner *workload.Result
}

// FinishTimes returns each client's completion time in client order.
func (r *Result) FinishTimes() []time.Duration { return r.inner.Finishes.Durations() }

// FinishSpread returns max/min of the finish times — the paper's headline
// unpredictability metric.
func (r *Result) FinishSpread() float64 { return r.inner.Finishes.Summary().Spread() }

// Utilization returns GPU busy time over elapsed time, averaged over
// devices.
func (r *Result) Utilization() float64 { return r.inner.Utilization }

// Elapsed returns the virtual time at which the last client finished.
func (r *Result) Elapsed() time.Duration { return r.inner.Elapsed }

// TokenSwitches returns the number of gang switches the schedulers made,
// summed over devices.
func (r *Result) TokenSwitches() int { return r.inner.Switches }

// FailedClients lists clients that could not be admitted (device memory).
func (r *Result) FailedClients() []int { return r.inner.FailedClients }

// QuantumDurations returns, per client, the GPU duration of each scheduling
// quantum the client received (empty for vanilla TF-Serving).
func (r *Result) QuantumDurations() map[int][]time.Duration {
	out := make(map[int][]time.Duration)
	for _, q := range r.inner.Quanta {
		out[q.Client] = append(out[q.Client], q.GPUDuration)
	}
	return out
}

// GPUSeconds returns each client's total attributed GPU time — the
// usage-accounting capability the paper motivates for cloud billing and
// service differentiation. Empty for vanilla TF-Serving runs (the driver
// cannot attribute usage; that is the point of the paper).
func (r *Result) GPUSeconds() map[int]time.Duration {
	out := make(map[int]time.Duration)
	for _, q := range r.inner.Quanta {
		out[q.Client] += q.GPUDuration
	}
	return out
}

// MeanQuantum returns the mean GPU duration per quantum across all clients.
func (r *Result) MeanQuantum() time.Duration {
	var sum time.Duration
	n := 0
	for _, q := range r.inner.Quanta {
		sum += q.GPUDuration
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// Simulate runs clients against a simulated serving deployment and returns
// its measurements. For Olympian runs, models are profiled offline
// automatically before the simulation starts, exactly as the paper's
// operator workflow prescribes.
func Simulate(cfg Config, clients []Client) (*Result, error) {
	res, err := workload.Run(workload.Config{
		Seed:           cfg.Seed,
		Spec:           cfg.GPU,
		Kind:           cfg.Scheduler,
		Policy:         cfg.Policy,
		Quantum:        cfg.Quantum,
		ReserveMemory:  cfg.ReserveMemory,
		QueueOnMemory:  cfg.QueueOnMemory,
		ThreadPoolSize: cfg.ThreadPoolSize,
		GPUs:           cfg.GPUs,
	}, clients)
	if err != nil {
		return nil, err
	}
	return &Result{inner: res}, nil
}

// ModelProfile is an offline profile: per-node costs, C_j, D_j, and the
// solo runtime.
type ModelProfile = profiler.Result

// Profile runs the offline profiler for a model at a batch size on a GPU
// platform (the paper's §3.3 profiling pass).
func Profile(modelName string, batchSize int, spec GPUSpec) (*ModelProfile, error) {
	if spec.Name == "" {
		spec = gpu.GTX1080Ti
	}
	g, err := model.Build(modelName, batchSize)
	if err != nil {
		return nil, err
	}
	return profiler.ProfileSolo(g, profiler.Options{Spec: spec, Seed: 1})
}

// ChooseQuantum traces Overhead-Q curves for the given (model, batch) pairs
// and returns the smallest quantum whose overhead stays within tolerance
// for every model — the paper's operator-facing knob.
func ChooseQuantum(refs map[string]int, tolerance float64, spec GPUSpec) (time.Duration, error) {
	if spec.Name == "" {
		spec = gpu.GTX1080Ti
	}
	if tolerance <= 0 {
		tolerance = 0.025
	}
	var curves []*profiler.OverheadCurve
	for name, batch := range refs {
		g, err := model.Build(name, batch)
		if err != nil {
			return 0, err
		}
		prof, err := profiler.ProfileSolo(g, profiler.Options{Spec: spec, Seed: 1})
		if err != nil {
			return 0, err
		}
		curve, err := profiler.MeasureOverheadCurve(g, prof, nil, profiler.Options{Spec: spec, Seed: 1})
		if err != nil {
			return 0, err
		}
		curves = append(curves, curve)
	}
	q := profiler.ChooseQForSet(curves, tolerance)
	if q == 0 {
		return 0, fmt.Errorf("olympian: no models given to ChooseQuantum")
	}
	return q, nil
}

// ModelMemory returns the device memory one serving client of the model
// needs.
func ModelMemory(modelName string, batchSize int) (int64, error) {
	return model.MemoryBytes(modelName, batchSize)
}

// Experiment identifies one paper artifact reproduction (e.g. "fig11").
type Experiment = experiments.Entry

// Experiments lists every paper table/figure reproduction in paper order.
func Experiments() []Experiment { return experiments.Registry() }

// ExperimentReport is the printable result of one experiment.
type ExperimentReport = experiments.Report

// RunExperiment reproduces one paper artifact by id. Quick mode shrinks the
// workload for fast smoke runs.
func RunExperiment(id string, quick bool) (*ExperimentReport, error) {
	e, err := experiments.Lookup(id)
	if err != nil {
		return nil, err
	}
	return e.Run(experiments.Options{Quick: quick, Seed: 1})
}

// Summary re-exports the metrics summary type used in reports.
type Summary = metrics.Summary

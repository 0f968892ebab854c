package olympian

import (
	"io"
	"time"

	"olympian/internal/planner"
	"olympian/internal/trace"
	"olympian/internal/workload"
)

// GPUClients returns how many clients were placed on each device.
func (r *Result) GPUClients() []int {
	out := make([]int, len(r.inner.PerGPU))
	for i, share := range r.inner.PerGPU {
		out[i] = share.Clients
	}
	return out
}

// GPUUtilizations returns per-device utilization.
func (r *Result) GPUUtilizations() []float64 {
	out := make([]float64, len(r.inner.PerGPU))
	for i, share := range r.inner.PerGPU {
		out[i] = share.Utilization
	}
	return out
}

// WriteTrace exports the run's scheduling timeline in the Chrome
// trace-event format (open with chrome://tracing or ui.perfetto.dev): one
// track per client, one slice per quantum. Vanilla runs have no scheduler
// timeline and produce an empty trace.
func (r *Result) WriteTrace(w io.Writer, clients []Client) error {
	labels := make(map[int]string, len(clients))
	for i, c := range clients {
		labels[i] = c.Model
	}
	return trace.WriteChromeTrace(w, r.inner.Quanta, labels)
}

// PoissonClients generates an open-loop arrival process: single-batch
// requests of the model arriving at ratePerSec with exponential
// interarrivals until horizon — the paper's §7 "realistic workloads"
// future-work item.
func PoissonClients(modelName string, batchSize int, ratePerSec float64, horizon time.Duration, seed int64) []Client {
	return workload.PoissonClients(modelName, batchSize, ratePerSec, horizon, seed)
}

// Latencies returns per-request response times (finish minus arrival) for
// a simulation of arrival-stamped clients.
func Latencies(res *Result, clients []Client) []time.Duration {
	return workload.Latencies(res.inner.Finishes, clients)
}

// PlanPolicy selects the sharing discipline of the analytic planner.
type PlanPolicy = planner.Policy

// Planner policies.
const (
	// PlanFair predicts equal processor sharing.
	PlanFair = planner.PolicyFair
	// PlanWeighted predicts weight-proportional sharing.
	PlanWeighted = planner.PolicyWeighted
	// PlanPriority predicts strict priority tiers.
	PlanPriority = planner.PolicyPriority
)

// Plan predicts each client's finish time analytically, without running the
// simulation: under Olympian's millisecond time-slicing the GPU behaves as
// a (weighted) processor-sharing server over each client's profiled GPU
// demand. Useful for what-if capacity questions; the test suite validates
// it against the simulator within a few percent.
func Plan(clients []Client, policy PlanPolicy, spec GPUSpec) ([]time.Duration, error) {
	if spec.Name == "" {
		spec = GTX1080Ti
	}
	profiles := make(map[workload.ModelRef]*ModelProfile)
	jobs := make([]planner.Job, len(clients))
	for i, c := range clients {
		ref := workload.ModelRef{Model: c.Model, Batch: c.Batch}
		prof, ok := profiles[ref]
		if !ok {
			p, err := Profile(c.Model, c.Batch, spec)
			if err != nil {
				return nil, err
			}
			profiles[ref] = p
			prof = p
		}
		batches := c.Batches
		if batches <= 0 {
			batches = 1
		}
		jobs[i] = planner.Job{
			ID:       i,
			Demand:   time.Duration(batches) * prof.GPUDuration,
			Weight:   c.Weight,
			Priority: c.Priority,
			Arrive:   c.ArriveAt,
		}
	}
	preds, err := planner.PredictFinishTimes(jobs, policy)
	if err != nil {
		return nil, err
	}
	out := make([]time.Duration, len(preds))
	for i, p := range preds {
		out[i] = p.Finish
	}
	return out, nil
}

// Package spec decodes the JSON simulation description shared by
// olympian-sim scenario files and olympian-serve's /simulate, /trace and
// /plan bodies: scheduler and policy names, and client groups capped in the
// clients, batch size and sequential jobs they may expand to.
package spec

import (
	"fmt"
	"time"

	"olympian"
)

// Simulation names a run's scheduler and policy and lists its clients.
type Simulation struct {
	// Scheduler: tf-serving | olympian | cpu-timer | kernel-slicing
	// (default tf-serving).
	Scheduler string `json:"scheduler"`
	// Policy: fair | weighted | priority | lottery | deficit-rr | edf
	// (default fair).
	Policy string `json:"policy"`
	// QuantumUs is Q in microseconds (0 = default).
	QuantumUs int `json:"quantumUs"`
	// Seed drives randomness.
	Seed int64 `json:"seed"`
	// Clients are client groups, each expanded to Count clients.
	Clients []ClientGroup `json:"clients"`
}

// ClientGroup is Count identical clients (at least one).
type ClientGroup struct {
	Model    string `json:"model"`
	Batch    int    `json:"batch"`
	Batches  int    `json:"batches"`
	Count    int    `json:"count"`
	Weight   int    `json:"weight"`
	Priority int    `json:"priority"`
	// ArriveMs delays each client's first request.
	ArriveMs int `json:"arriveMs"`
	// DeadlineMs is each batch's relative completion target (edf).
	DeadlineMs int `json:"deadlineMs"`
}

// MaxClients caps how many clients one description's groups may expand
// to. The paper's largest workload is the 40-client scalability ramp, and
// an 11 GB GPU holds about 45 Inception clients, so the cap leaves ample
// room while a ~100-byte body can no longer ask for billions of clients.
const MaxClients = 1000

// MaxBatch caps a client's batch size. A model graph replicates its
// preprocessing chain once per image, so the batch bounds the graph each
// client builds; the cap is 4× the largest Table 2 batch (AlexNet, 256).
const MaxBatch = 1024

// MaxJobs caps the sequential jobs one simulation may run, summed over
// clients as max(count,1)×max(batches,1). It is MaxClients clients at the
// paper's 10 batches each, far above the 40×10 jobs of the largest
// experiment. The analytic planner's cost does not grow with batches, so
// it only takes the client cap.
const MaxJobs = MaxClients * 10

var schedulers = map[string]olympian.Scheduler{
	"":               olympian.SchedulerTFServing,
	"tf-serving":     olympian.SchedulerTFServing,
	"olympian":       olympian.SchedulerOlympian,
	"cpu-timer":      olympian.SchedulerCPUTimer,
	"kernel-slicing": olympian.SchedulerKernelSlicing,
}

var policies = map[string]func() olympian.Policy{
	"":           olympian.FairPolicy,
	"fair":       olympian.FairPolicy,
	"weighted":   olympian.WeightedFairPolicy,
	"priority":   olympian.PriorityPolicy,
	"lottery":    olympian.LotteryPolicy,
	"deficit-rr": olympian.DeficitRoundRobinPolicy,
	"edf":        olympian.EDFPolicy,
}

// Build translates s into a simulation config and its clients. It fails,
// before anything is simulated, on an unknown name, on an empty or
// over-cap client set, on a batch above MaxBatch, and on more than MaxJobs
// sequential jobs.
func (s Simulation) Build() (olympian.Config, []olympian.Client, error) {
	cfg := olympian.Config{Seed: s.Seed, Quantum: time.Duration(s.QuantumUs) * time.Microsecond}
	sched, ok := schedulers[s.Scheduler]
	if !ok {
		return cfg, nil, fmt.Errorf("unknown scheduler %q", s.Scheduler)
	}
	policy, ok := policies[s.Policy]
	if !ok {
		return cfg, nil, fmt.Errorf("unknown policy %q", s.Policy)
	}
	cfg.Scheduler, cfg.Policy = sched, policy()
	clients, err := s.ExpandClients()
	if err != nil {
		return cfg, nil, err
	}
	jobs := 0
	for _, c := range clients {
		n := max(c.Batches, 1)
		if n > MaxJobs-jobs {
			return cfg, nil, fmt.Errorf("jobs: more than %d requested (clients × batches)", MaxJobs)
		}
		jobs += n
	}
	return cfg, clients, nil
}

// ExpandClients turns the client groups into a flat client list, failing
// before it allocates when the groups ask for more than MaxClients in total
// or for a batch above MaxBatch, and failing when they ask for none.
func (s Simulation) ExpandClients() ([]olympian.Client, error) {
	total := 0
	for _, g := range s.Clients {
		if g.Batch > MaxBatch {
			return nil, fmt.Errorf("batch: %d above the cap of %d", g.Batch, MaxBatch)
		}
		n := max(g.Count, 1)
		if n > MaxClients-total {
			return nil, fmt.Errorf("clients: more than %d requested", MaxClients)
		}
		total += n
	}
	if total == 0 {
		return nil, fmt.Errorf("no clients")
	}
	clients := make([]olympian.Client, 0, total)
	for _, g := range s.Clients {
		for i := max(g.Count, 1); i > 0; i-- {
			clients = append(clients, olympian.Client{
				Model: g.Model, Batch: g.Batch, Batches: g.Batches,
				Weight: g.Weight, Priority: g.Priority,
				ArriveAt: time.Duration(g.ArriveMs) * time.Millisecond,
				Deadline: time.Duration(g.DeadlineMs) * time.Millisecond,
			})
		}
	}
	return clients, nil
}

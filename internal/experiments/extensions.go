package experiments

import (
	"fmt"
	"time"

	"olympian/internal/metrics"
	"olympian/internal/model"
	"olympian/internal/workload"
)

// ExtMultiGPU implements the paper's §7 "multiple GPUs" future-work item:
// the serving process drives several devices, placing clients on the
// least-loaded GPU, with an independent Olympian scheduler per device.
// Throughput should scale near-linearly while per-device fairness holds.
func ExtMultiGPU(o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:    "ext-multigpu",
		Title: "Extension: multi-GPU serving (paper §7 future work)",
		Paper: "proposed as future work: support multiple GPUs per server",
	}
	nClients := 8
	batches := 4
	if o.Quick {
		nClients, batches = 4, 2
	}
	clients := make([]workload.ClientSpec, nClients)
	for i := range clients {
		clients[i] = workload.ClientSpec{Model: model.Inception, Batch: o.batchSize(), Batches: batches}
	}
	r.Headers = []string{"GPUs", "last finish", "speedup", "fairness spread", "per-GPU clients"}
	// Each device count is an independent simulation; speedups are derived
	// against the 1-GPU baseline after all three finish.
	gpuCounts := []int{1, 2, 4}
	specs := make([]workload.RunSpec, len(gpuCounts))
	for i, n := range gpuCounts {
		specs[i] = workload.RunSpec{
			Config:  workload.Config{Kind: workload.Olympian, Quantum: o.quantum(), GPUs: n},
			Clients: clients,
		}
	}
	multis, err := o.runAll(specs)
	if err != nil {
		return nil, err
	}
	base := multis[0].Elapsed
	var bestSpeedup float64
	for i, res := range multis {
		speedup := base.Seconds() / res.Elapsed.Seconds()
		if speedup > bestSpeedup {
			bestSpeedup = speedup
		}
		placement := ""
		for j, share := range res.PerGPU {
			if j > 0 {
				placement += "/"
			}
			placement += fmt.Sprintf("%d", share.Clients)
		}
		s := res.Finishes.Summary()
		r.AddRow(fmt.Sprintf("%d", gpuCounts[i]), metrics.FormatSeconds(res.Elapsed),
			fmt.Sprintf("%.2fx", speedup), fmt.Sprintf("%.3fx", s.Spread()), placement)
	}
	r.AddNote("least-loaded placement with one Olympian scheduler per device")
	r.SetMetric("speedup_4gpu", bestSpeedup)
	return r, nil
}

// ExtDynamicArrivals implements the paper's §7 "more realistic workloads"
// item: an open-loop Poisson arrival process of single-batch requests.
// Olympian's fair sharing keeps response times predictable under load,
// where TF-Serving's driver-level scheduling spreads them.
func ExtDynamicArrivals(o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:    "ext-dynamic",
		Title: "Extension: open-loop Poisson arrivals (paper §7 future work)",
		Paper: "proposed as future work: evaluate under realistic workloads",
	}
	batch := o.batchSize()
	horizon := 30 * time.Second
	rate := 1.6 // ~80% offered load against the ~0.5s service time
	if o.Quick {
		horizon = 5 * time.Second
		rate = 1.2
	}
	clients := workload.PoissonClients(model.Inception, batch, rate, horizon, o.Seed+55)
	if len(clients) == 0 {
		return nil, fmt.Errorf("ext-dynamic: empty arrival process")
	}
	r.Headers = []string{"system", "requests", "p50 latency", "p95 latency", "p99/p50"}
	kinds := []workload.SchedulerKind{workload.Vanilla, workload.Olympian}
	results, err := o.runAll([]workload.RunSpec{
		{Config: workload.Config{Kind: kinds[0], Quantum: o.quantum()}, Clients: clients},
		{Config: workload.Config{Kind: kinds[1], Quantum: o.quantum()}, Clients: clients},
	})
	if err != nil {
		return nil, err
	}
	var tailRatios []float64
	for i, kind := range kinds {
		res := results[i]
		lats := metrics.DurationsToSeconds(workload.Latencies(res.Finishes, clients))
		p50 := metrics.Quantile(lats, 0.50)
		p95 := metrics.Quantile(lats, 0.95)
		p99 := metrics.Quantile(lats, 0.99)
		ratio := p99 / p50
		tailRatios = append(tailRatios, ratio)
		r.AddRow(kind.String(), fmt.Sprintf("%d", len(lats)),
			fmt.Sprintf("%.2fs", p50), fmt.Sprintf("%.2fs", p95),
			fmt.Sprintf("%.2f", ratio))
	}
	r.AddNote("open-loop Poisson arrivals at %.1f req/s over %v", rate, horizon)
	r.SetMetric("vanilla_tail_ratio", tailRatios[0])
	r.SetMetric("olympian_tail_ratio", tailRatios[1])
	return r, nil
}

// ExtKernelSlicing contrasts Olympian's node-boundary cooperative switching
// with the related-work kernel-slicing approaches ([2,4,19,23,31,33] in the
// paper): splitting kernels gives sub-node preemption granularity but pays
// a context save/restore penalty on every slice, which Olympian's design
// explicitly avoids.
func ExtKernelSlicing(o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:    "ext-slicing",
		Title: "Extension: kernel-slicing baseline vs Olympian",
		Paper: "related work: kernel slicing isolates at significant preemption overhead",
	}
	clients := o.homogeneous(o.clients())
	r.Headers = []string{"system", "finish spread", "last finish", "overhead vs tf-serving"}
	// All three systems run concurrently; overheads are computed against the
	// vanilla baseline once everything is back.
	results, err := o.runAll([]workload.RunSpec{
		{Config: workload.Config{Kind: workload.Vanilla}, Clients: clients},
		{Config: workload.Config{Kind: workload.Olympian, Quantum: o.quantum()}, Clients: clients},
		{Config: workload.Config{Kind: workload.KernelSlicing, Quantum: o.quantum()}, Clients: clients},
	})
	if err != nil {
		return nil, err
	}
	van := results[0]
	base := van.Elapsed.Seconds()
	r.AddRow("tf-serving", fmt.Sprintf("%.3fx", van.Finishes.Summary().Spread()),
		metrics.FormatSeconds(van.Elapsed), "-")
	overheads := map[workload.SchedulerKind]float64{}
	for i, kind := range []workload.SchedulerKind{workload.Olympian, workload.KernelSlicing} {
		res := results[i+1]
		ov := (res.Elapsed.Seconds() - base) / base
		overheads[kind] = ov
		r.AddRow(kind.String(), fmt.Sprintf("%.3fx", res.Finishes.Summary().Spread()),
			metrics.FormatSeconds(res.Elapsed), fmt.Sprintf("%.1f%%", ov*100))
	}
	r.AddNote("both isolate; node-boundary switching does it without per-slice preemption penalties")
	r.SetMetric("olympian_overhead", overheads[workload.Olympian])
	r.SetMetric("slicing_overhead", overheads[workload.KernelSlicing])
	return r, nil
}

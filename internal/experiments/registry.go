package experiments

import (
	"fmt"
	"sort"
)

// Entry couples an experiment id with its runner.
type Entry struct {
	ID    string
	Title string
	Run   func(Options) (*Report, error)
}

// Registry lists every experiment in paper order.
func Registry() []Entry {
	return []Entry{
		{"fig3", "TF-Serving finish-time unpredictability", Fig3},
		{"spatial", "Spatial-multiplexing headroom (§2)", Spatial},
		{"fig4", "Node-duration CDF", Fig4},
		{"fig6", "Online cost-profiler overhead", Fig6},
		{"fig8", "Overhead-Q curves", Fig8},
		{"fig11", "Fair sharing, homogeneous workload", Fig11},
		{"fig12", "Scheduling-interval durations", Fig12},
		{"fig13", "Fair sharing, heterogeneous workloads", Fig13},
		{"fig14", "GPU duration per quantum, heterogeneous", Fig14},
		{"fig15", "Quantum overflow at gang switches", Fig15Overflow},
		{"fig16", "GPU duration per quantum, 7-DNN workload", Fig16},
		{"fig17", "Weighted fair sharing", Fig17},
		{"fig18", "Priority scheduling", Fig18},
		{"fig19", "CPU-timer strawman", Fig19},
		{"fig20", "Linear cost models", Fig20},
		{"fig21", "Portability (Titan X)", Fig21},
		{"table2", "Model inventory", Table2},
		{"util", "GPU utilization", Utilization},
		{"scale", "Scalability limits", Scalability},
		{"stability", "Cost/duration stability", Stability},
		{"ext-multigpu", "Extension: multi-GPU serving", ExtMultiGPU},
		{"ext-dynamic", "Extension: Poisson arrivals", ExtDynamicArrivals},
		{"ext-batching", "Extension: request batching front-end", ExtBatching},
		{"ext-slicing", "Extension: kernel-slicing baseline", ExtKernelSlicing},
		{"chaos", "Chaos: fairness and tails under injected faults", Chaos},
		{"cluster", "Extension: multi-GPU cluster serving", Cluster},
		{"overload", "Overload control: adaptive admission, priority shedding, hedging", Overload},
		{"sharded", "Sharded simulation core: engines, identity and scale", Sharded},
		{"recovery", "Crash recovery: goodput retention, MTTR, availability", Recovery},
		{"llm", "LLM serving: TTFT/TPOT under load, KV pressure, disaggregation", LLM},
		{"llmoverload", "LLM overload control: token admission, SLO shedding, graceful degradation", LLMOverload},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Entry, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0)
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Entry{}, fmt.Errorf("experiments: unknown id %q (known: %v)", id, ids)
}

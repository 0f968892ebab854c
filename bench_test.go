// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, each regenerating the artifact at full size and reporting its
// headline metrics, plus ablations of the design choices DESIGN.md calls
// out, the §7 extensions and the paper-workload cost of one simulated
// second. Micro-benchmarks live in the package they measure (internal/sim,
// internal/gpu, ...), and bench/run.sh measures whole-simulator throughput
// and allocations.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// A full pass reproduces the entire evaluation; individual artifacts can be
// selected with -bench=Fig11 etc. Shape expectations (who wins, by what
// factor) are asserted in the unit tests; benchmarks only measure and
// report.
package olympian

import (
	"testing"
	"time"

	"olympian/internal/experiments"
	"olympian/internal/model"
	"olympian/internal/profiler"
	"olympian/internal/workload"
)

// benchProfiles shares offline profiles across all benchmarks in a run.
var benchProfiles = profiler.NewStore()

// runExperiment executes a full-size experiment b.N times, reporting the
// experiment's metrics through the benchmark framework.
func runExperiment(b *testing.B, run func(experiments.Options) (*experiments.Report, error)) {
	b.Helper()
	opts := experiments.Options{Seed: 1, Profiles: benchProfiles}
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = run(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for name, v := range rep.Metrics {
		b.ReportMetric(v, name)
	}
}

// Figures and tables, in paper order.

func BenchmarkFig03TFServingUnpredictability(b *testing.B) { runExperiment(b, experiments.Fig3) }
func BenchmarkFig04NodeDurationCDF(b *testing.B)           { runExperiment(b, experiments.Fig4) }
func BenchmarkFig06OnlineProfilerOverhead(b *testing.B)    { runExperiment(b, experiments.Fig6) }
func BenchmarkFig08OverheadQCurves(b *testing.B)           { runExperiment(b, experiments.Fig8) }
func BenchmarkFig11FairHomogeneous(b *testing.B)           { runExperiment(b, experiments.Fig11) }
func BenchmarkFig12SchedulingIntervals(b *testing.B)       { runExperiment(b, experiments.Fig12) }
func BenchmarkFig13HeterogeneousFinish(b *testing.B)       { runExperiment(b, experiments.Fig13) }
func BenchmarkFig14QuantumDurations(b *testing.B)          { runExperiment(b, experiments.Fig14) }
func BenchmarkFig15QuantumOverflow(b *testing.B)           { runExperiment(b, experiments.Fig15Overflow) }
func BenchmarkFig16ComplexWorkload(b *testing.B)           { runExperiment(b, experiments.Fig16) }
func BenchmarkFig17WeightedFair(b *testing.B)              { runExperiment(b, experiments.Fig17) }
func BenchmarkFig18Priority(b *testing.B)                  { runExperiment(b, experiments.Fig18) }
func BenchmarkFig19CPUTimerStrawman(b *testing.B)          { runExperiment(b, experiments.Fig19) }
func BenchmarkFig20LinearCostModel(b *testing.B)           { runExperiment(b, experiments.Fig20) }
func BenchmarkFig21Portability(b *testing.B)               { runExperiment(b, experiments.Fig21) }
func BenchmarkTable2ModelInventory(b *testing.B)           { runExperiment(b, experiments.Table2) }
func BenchmarkUtilization(b *testing.B)                    { runExperiment(b, experiments.Utilization) }
func BenchmarkScalability(b *testing.B)                    { runExperiment(b, experiments.Scalability) }
func BenchmarkCostStability(b *testing.B)                  { runExperiment(b, experiments.Stability) }

// Ablation benches for the design choices DESIGN.md calls out.

// BenchmarkAblationQuantumSize sweeps Q and reports Olympian's end-to-end
// overhead against vanilla on the homogeneous workload — the cost of finer
// interleaving (design decision 3).
func BenchmarkAblationQuantumSize(b *testing.B) {
	clients := HomogeneousClients(Inception, 100, 3, 4)
	for _, q := range []time.Duration{400 * time.Microsecond, 1200 * time.Microsecond, 3600 * time.Microsecond} {
		b.Run(q.String(), func(b *testing.B) {
			var overhead, spread float64
			for i := 0; i < b.N; i++ {
				van, err := workload.Run(workload.Config{Seed: 1, Kind: workload.Vanilla, Profiles: benchProfiles}, clients)
				if err != nil {
					b.Fatal(err)
				}
				oly, err := workload.Run(workload.Config{
					Seed: 1, Kind: workload.Olympian, Quantum: q, Profiles: benchProfiles,
				}, clients)
				if err != nil {
					b.Fatal(err)
				}
				overhead = (oly.Elapsed - van.Elapsed).Seconds() / van.Elapsed.Seconds()
				spread = oly.Finishes.Summary().Spread()
			}
			b.ReportMetric(overhead, "overhead")
			b.ReportMetric(spread, "spread")
		})
	}
}

// BenchmarkAblationCostVsWallClock contrasts the cost-accumulation quantum
// with the CPU-timer strawman on the heterogeneous workload (design
// decision 1).
func BenchmarkAblationCostVsWallClock(b *testing.B) {
	var clients []workload.ClientSpec
	for i := 0; i < 4; i++ {
		m := model.Inception
		if i >= 2 {
			m = model.ResNet152
		}
		clients = append(clients, workload.ClientSpec{Model: m, Batch: 100, Batches: 3})
	}
	for _, kind := range []workload.SchedulerKind{workload.Olympian, workload.WallClockSlicing} {
		b.Run(kind.String(), func(b *testing.B) {
			var spread float64
			for i := 0; i < b.N; i++ {
				res, err := workload.Run(workload.Config{Seed: 1, Kind: kind, Profiles: benchProfiles}, clients)
				if err != nil {
					b.Fatal(err)
				}
				means := map[int]float64{}
				counts := map[int]float64{}
				for _, q := range res.Quanta {
					means[q.Client] += q.GPUDuration.Seconds()
					counts[q.Client]++
				}
				lo, hi := 0.0, 0.0
				for c, sum := range means {
					m := sum / counts[c]
					if lo == 0 || m < lo {
						lo = m
					}
					if m > hi {
						hi = m
					}
				}
				if lo > 0 {
					spread = hi / lo
				}
			}
			b.ReportMetric(spread, "gpu_quantum_spread")
		})
	}
}

// BenchmarkAblationSwitchCost shows how the gang-switch cost shapes the
// overhead at a fixed Q (design decision 4).
func BenchmarkAblationSwitchCost(b *testing.B) {
	clients := HomogeneousClients(Inception, 100, 3, 4)
	for _, sc := range []time.Duration{5 * time.Microsecond, 20 * time.Microsecond, 80 * time.Microsecond} {
		b.Run(sc.String(), func(b *testing.B) {
			var elapsed float64
			for i := 0; i < b.N; i++ {
				res, err := workload.Run(workload.Config{
					Seed: 1, Kind: workload.Olympian, SwitchCost: sc, Profiles: benchProfiles,
				}, clients)
				if err != nil {
					b.Fatal(err)
				}
				elapsed = res.Elapsed.Seconds()
			}
			b.ReportMetric(elapsed, "elapsed_s")
		})
	}
}

// BenchmarkSimulatedSecond reports how much wall time one virtual second of
// the full 10-client serving simulation costs.
func BenchmarkSimulatedSecond(b *testing.B) {
	clients := HomogeneousClients(Inception, 100, 1, 10)
	var virtual time.Duration
	for i := 0; i < b.N; i++ {
		res, err := workload.Run(workload.Config{Seed: 1, Kind: workload.Olympian, Profiles: benchProfiles}, clients)
		if err != nil {
			b.Fatal(err)
		}
		virtual = res.Elapsed
	}
	b.ReportMetric(virtual.Seconds(), "virtual_s_per_op")
}

// Extension benches (paper §7 future-work items implemented here).

func BenchmarkExtMultiGPU(b *testing.B)        { runExperiment(b, experiments.ExtMultiGPU) }
func BenchmarkExtDynamicArrivals(b *testing.B) { runExperiment(b, experiments.ExtDynamicArrivals) }

func BenchmarkExtBatching(b *testing.B) { runExperiment(b, experiments.ExtBatching) }

func BenchmarkSpatialMultiplexing(b *testing.B) { runExperiment(b, experiments.Spatial) }

func BenchmarkExtKernelSlicing(b *testing.B) { runExperiment(b, experiments.ExtKernelSlicing) }

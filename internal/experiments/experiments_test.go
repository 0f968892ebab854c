package experiments

import (
	"bytes"
	"strings"
	"testing"

	"olympian/internal/cluster"
	"olympian/internal/obs"
)

// quick runs every experiment in shrunken form and asserts the paper's
// qualitative shapes hold even at small scale.
func quickOpts() Options { return Options{Quick: true, Seed: 1} }

func TestFig3ShowsSpread(t *testing.T) {
	r, err := Fig3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metric("spread_run1") < 1.01 && r.Metric("spread_run2") < 1.01 {
		t.Fatalf("vanilla runs show no spread: %v / %v",
			r.Metric("spread_run1"), r.Metric("spread_run2"))
	}
}

func TestFig4CDFShape(t *testing.T) {
	r, err := Fig4(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metric("frac_under_1ms_b10") < 0.9 {
		t.Fatalf("batch-10 nodes should be overwhelmingly sub-millisecond")
	}
}

func TestFig6OnlineOverheadRange(t *testing.T) {
	r, err := Fig6(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metric("min_overhead") < 0.08 || r.Metric("max_overhead") > 0.60 {
		t.Fatalf("online overhead out of plausible range: %v..%v",
			r.Metric("min_overhead"), r.Metric("max_overhead"))
	}
}

func TestFig8CurvesDecrease(t *testing.T) {
	r, err := Fig8(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range r.Metrics {
		if strings.HasPrefix(k, "first_minus_last_") && v <= 0 {
			t.Fatalf("curve %s not decreasing (first-last = %v)", k, v)
		}
	}
	if r.Metric("chosen_q_us") <= 0 {
		t.Fatal("no Q chosen")
	}
}

func TestFig11OlympianEqualizes(t *testing.T) {
	r, err := Fig11(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metric("olympian_spread") > 1.02 {
		t.Fatalf("olympian spread %.3f", r.Metric("olympian_spread"))
	}
	if r.Metric("olympian_spread") >= r.Metric("vanilla_spread") {
		t.Fatalf("olympian (%.3f) not tighter than vanilla (%.3f)",
			r.Metric("olympian_spread"), r.Metric("vanilla_spread"))
	}
}

func TestFig12MillisecondIntervals(t *testing.T) {
	r, err := Fig12(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	mean := r.Metric("mean_interval_us")
	if mean < 500 || mean > 4000 {
		t.Fatalf("mean interval %vus not at millisecond timescale", mean)
	}
	if r.Metric("interval_rel_std") <= 0.02 {
		t.Fatal("intervals should vary widely, not be constant")
	}
}

func TestFig13ModelClusters(t *testing.T) {
	r, err := Fig13(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"w1_inc_rel_spread", "w1_rn_rel_spread", "w2_inc_rel_spread", "w2_rn_rel_spread"} {
		if r.Metric(k) > 0.05 {
			t.Fatalf("%s = %v: clients of the same model should cluster", k, r.Metric(k))
		}
	}
}

func TestFig14QuantaNearQ(t *testing.T) {
	r, err := Fig14(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metric("worst_dev_from_q") > 0.20 {
		t.Fatalf("worst deviation from Q = %.2f", r.Metric("worst_dev_from_q"))
	}
}

func TestFig15OverflowBounded(t *testing.T) {
	r, err := Fig15Overflow(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if f := r.Metric("max_overflow_kernels"); f > 2 {
		t.Fatalf("overflow exceeded the in-flight pipeline depth: %v", f)
	}
	if f := r.Metric("mean_overflow_kernels"); f < 0 {
		t.Fatalf("mean overflow %v", f)
	}
}

func TestFig16ComplexWorkloadFair(t *testing.T) {
	r, err := Fig16(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metric("worst_dev_from_q") > 0.30 {
		t.Fatalf("worst deviation from Q = %.2f", r.Metric("worst_dev_from_q"))
	}
}

func TestFig17WeightedRatios(t *testing.T) {
	r, err := Fig17(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Metric("ratio_2_1"); got < 0.65 || got > 0.85 {
		t.Fatalf("2:1 ratio %.2f, want ~0.75", got)
	}
	if got := r.Metric("ratio_10_1"); got < 0.45 || got > 0.65 {
		t.Fatalf("10:1 ratio %.2f, want ~0.55", got)
	}
}

func TestFig18PrioritySerializes(t *testing.T) {
	r, err := Fig18(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metric("strict_serialized") != 1 {
		t.Fatal("strict priorities did not serialize")
	}
	if r.Metric("tier_gap_s") <= 0 {
		t.Fatal("low tier should finish after high tier")
	}
	if r.Metric("high_tier_rel_spread") > 0.05 {
		t.Fatalf("high tier should fair-share: rel spread %v", r.Metric("high_tier_rel_spread"))
	}
}

func TestFig19StrawmanWorseThanCostBased(t *testing.T) {
	r, err := Fig19(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The wall-clock strawman delivers unequal GPU shares; cost-based mode
	// (Fig14) holds clients within a fraction of a percent of each other.
	if r.Metric("gpu_quantum_spread") < 1.01 {
		t.Fatalf("strawman GPU/quantum spread %.3f: should exceed cost-based equality",
			r.Metric("gpu_quantum_spread"))
	}
}

func TestFig20LinearModelFairness(t *testing.T) {
	r, err := Fig20(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metric("worst_spread") > 1.02 {
		t.Fatalf("linear-model spread %.3f", r.Metric("worst_spread"))
	}
}

func TestFig21Portability(t *testing.T) {
	r, err := Fig21(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metric("spread") > 1.02 {
		t.Fatalf("titan-x spread %.3f", r.Metric("spread"))
	}
}

func TestTable2QuickRuns(t *testing.T) {
	r, err := Table2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("%d rows, want 7", len(r.Rows))
	}
}

func TestUtilizationShape(t *testing.T) {
	r, err := Utilization(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"vanilla_util", "fair_util", "priority_util"} {
		if v := r.Metric(k); v < 0.5 || v > 1.0 {
			t.Fatalf("%s = %v out of range", k, v)
		}
	}
}

func TestScalabilityLimits(t *testing.T) {
	r, err := Scalability(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metric("memory_clients") < 35 || r.Metric("memory_clients") > 60 {
		t.Fatalf("memory clients %v, want ~45", r.Metric("memory_clients"))
	}
	if r.Metric("vanilla_max_clients") < r.Metric("olympian_max_clients") {
		t.Fatalf("vanilla should scale at least as far as olympian: %v vs %v",
			r.Metric("vanilla_max_clients"), r.Metric("olympian_max_clients"))
	}
}

func TestStabilityLowVariance(t *testing.T) {
	r, err := Stability(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metric("cost_rel_std") > 0.05 || r.Metric("dur_rel_std") > 0.05 {
		t.Fatalf("profiles unstable: cost %v, duration %v",
			r.Metric("cost_rel_std"), r.Metric("dur_rel_std"))
	}
}

func TestRegistryAndLookup(t *testing.T) {
	reg := Registry()
	if len(reg) < 15 {
		t.Fatalf("registry has %d entries", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Fatalf("incomplete entry %+v", e)
		}
	}
	if _, err := Lookup("fig11"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("bogus"); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "T", Paper: "P", Headers: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.AddNote("note %d", 7)
	r.SetMetric("m", 1.5)
	var buf bytes.Buffer
	r.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== x: T ==", "paper: P", "a  bb", "1  2", "note: note 7", "metric: m = 1.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report output missing %q:\n%s", want, out)
		}
	}
	if r.Metric("absent") != 0 {
		t.Fatal("absent metric should read zero")
	}
}

func TestExtMultiGPUSpeedup(t *testing.T) {
	r, err := ExtMultiGPU(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metric("speedup_4gpu") < 2.5 {
		t.Fatalf("4-GPU speedup %.2f, want near-linear", r.Metric("speedup_4gpu"))
	}
}

func TestExtDynamicArrivals(t *testing.T) {
	r, err := ExtDynamicArrivals(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metric("olympian_tail_ratio") <= 1 || r.Metric("vanilla_tail_ratio") <= 1 {
		t.Fatal("degenerate latency distributions")
	}
}

func TestExtBatchingConsolidates(t *testing.T) {
	r, err := ExtBatching(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// Batched serving must not blow up tail latency relative to
	// per-request serving.
	if r.Metric("p95_ms_b32") > 4*r.Metric("p95_ms_b1") {
		t.Fatalf("batching degraded p95: %v vs %v", r.Metric("p95_ms_b32"), r.Metric("p95_ms_b1"))
	}
}

func TestSpatialMultiplexingHeadroom(t *testing.T) {
	r, err := Spatial(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	big := r.Metric("big_batch_slowdown")
	small := r.Metric("small_batch_slowdown")
	if big < 1.7 {
		t.Fatalf("large-batch slowdown %.2f, want ~2x (no spatial headroom)", big)
	}
	if small >= big {
		t.Fatalf("small batches (%.2f) should overlap better than large (%.2f)", small, big)
	}
}

func TestExtKernelSlicingCostsMore(t *testing.T) {
	r, err := ExtKernelSlicing(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metric("slicing_overhead") <= r.Metric("olympian_overhead") {
		t.Fatalf("kernel slicing (%.3f) should cost more than node-boundary switching (%.3f)",
			r.Metric("slicing_overhead"), r.Metric("olympian_overhead"))
	}
}

func TestChaosHoldsUnderFaults(t *testing.T) {
	r, err := Chaos(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metric("deterministic") != 1 {
		t.Fatal("same-seed chaos runs diverged")
	}
	if r.Metric("kernel_faults") == 0 || r.Metric("job_aborts") == 0 {
		t.Fatalf("no faults injected: %v", r.Metrics)
	}
	// Recovery, not collapse: retries absorb the kernel faults and fair
	// sharing keeps surviving clients' finish times bounded.
	if spread := r.Metric("faulty_spread"); spread > 1.6 {
		t.Fatalf("fairness collapsed under faults: spread %.3f", spread)
	}
	if frac := r.Metric("serving_completed_frac"); frac < 0.8 {
		t.Fatalf("serving completed only %.0f%% of requests under bursts", frac*100)
	}
}

func TestClusterScalesAndFailsOver(t *testing.T) {
	r, err := Cluster(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metric("deterministic") != 1 {
		t.Fatal("same-seed cluster runs diverged")
	}
	// Near-linear goodput scaling: the fleet must deliver most of the
	// per-device goodput times the device count.
	if eff := r.Metric("scaling_efficiency"); eff < 0.8 {
		t.Fatalf("goodput scaling efficiency %.2f, want >= 0.8", eff)
	}
	// The stall plan must engage and failover must save every drained
	// request — no cluster-level failures.
	if r.Metric("failover_stalls") == 0 {
		t.Fatalf("no stalls injected: %v", r.Metrics)
	}
	if r.Metric("failovers") == 0 {
		t.Fatalf("no requests failed over: %v", r.Metrics)
	}
	if r.Metric("failover_failed") != 0 {
		t.Fatalf("%v requests failed despite failover", r.Metric("failover_failed"))
	}
	checkReportPinned(t, r, pinnedClusterReport)
}

// TestShardedSweepCompletesEveryRequest runs the sharded experiment's slim
// open-loop micro sweep on a single device and on both engines at 8 devices;
// shardedSweep fails any sweep that does not complete every request.
func TestShardedSweepCompletesEveryRequest(t *testing.T) {
	for _, tc := range []struct {
		engine  cluster.Engine
		devices int
	}{{cluster.Sharded, 1}, {cluster.SingleHeap, 8}, {cluster.Sharded, 8}} {
		if _, _, err := shardedSweep(tc.engine, tc.devices, 5_000, 2000, 1); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOverloadControl(t *testing.T) {
	r, err := Overload(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metric("deterministic") != 1 {
		t.Fatal("same-seed overload runs diverged")
	}
	// Goodput must plateau, not collapse, as offered load quadruples.
	if ratio := r.Metric("plateau_ratio"); ratio < 0.9 {
		t.Fatalf("goodput at 4x is %.2fx the 1x plateau, want >= 0.9 (congestion collapse)", ratio)
	}
	// Strict priority: the batch class absorbs the shedding while
	// interactive work keeps completing.
	if r.Metric("interactive_completed_4x") == 0 {
		t.Fatal("interactive class starved at 4x load")
	}
	il, bl := r.Metric("interactive_loss_frac_4x"), r.Metric("batch_loss_frac_4x")
	if il >= bl {
		t.Fatalf("interactive lost %.2f vs batch %.2f; shedding must land on the lower class", il, bl)
	}
	if r.Metric("admission_sheds_4x") == 0 {
		t.Fatal("adaptive admission never shed at 4x load; the sweep is not overloading")
	}
	// Hedging fired and never double-counted a completion.
	if r.Metric("hedges") == 0 {
		t.Fatal("hedge path never engaged")
	}
	if over := r.Metric("hedge_overcount"); over != 0 {
		t.Fatalf("hedged fleet accounted %+.0f extra completions, want exactly 0", over)
	}
	checkReportPinned(t, r, pinnedOverloadReport)
}

// TestOverloadDeterministicWhenObserved: recording the sweep must not leak
// one run's latency histograms into the next, so the observed 4x point still
// matches its un-observed same-seed rerun.
func TestOverloadDeterministicWhenObserved(t *testing.T) {
	o := quickOpts()
	o.Obs = obs.NewRecorder()
	o.Obs.MuteLayer(obs.LayerGPU)
	r, err := Overload(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metric("deterministic") != 1 {
		t.Fatal("observed overload run diverged from its un-observed rerun")
	}
}

func TestLLMServingPlane(t *testing.T) {
	r, err := LLM(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metric("bit_identical") != 1 {
		t.Fatal("LLM engines diverged between single-heap and sharded")
	}
	if r.Metric("invariant_violations") != 0 {
		t.Fatalf("%v token/KV conservation violations", r.Metric("invariant_violations"))
	}
	// Saturating the prefill replica must blow up time-to-first-token.
	if ratio := r.Metric("ttft_p99_load_ratio"); ratio < 2 {
		t.Fatalf("TTFT p99 grew only %.1fx from 0.5x to 4x load; the sweep is not saturating", ratio)
	}
	// KV pressure must surface as preemption and a degraded TPOT tail,
	// never as lost tokens (covered by the violation count above).
	if r.Metric("pressure_preemptions") == 0 {
		t.Fatal("starved decode pool never preempted")
	}
	if ratio := r.Metric("pressure_tpot_ratio"); ratio <= 1 {
		t.Fatalf("KV pressure did not degrade the TPOT tail: %.2fx", ratio)
	}
	checkReportPinned(t, r, pinnedLLMReport)
}

// TestRecoveryAuditedAndIdentical: every crash cell conserves its requests,
// the hardest cell is bit-identical across engines and reruns, and the
// rendered sweep is pinned.
func TestRecoveryAuditedAndIdentical(t *testing.T) {
	r, err := Recovery(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkIdentityAndAudit(t, r)
	checkReportPinned(t, r, pinnedRecoveryReport)
}

// TestLLMOverloadAuditedAndIdentical: the overload sweep conserves requests
// and tokens, the 4x cell is bit-identical across engines and reruns, and
// the rendered sweep is pinned.
func TestLLMOverloadAuditedAndIdentical(t *testing.T) {
	r, err := LLMOverload(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkIdentityAndAudit(t, r)
	checkReportPinned(t, r, pinnedLLMOverloadReport)
}

func checkIdentityAndAudit(t *testing.T, r *Report) {
	t.Helper()
	if r.Metric("bit_identical") != 1 {
		t.Errorf("%s: engines or same-seed reruns diverged", r.ID)
	}
	if n := r.Metric("invariant_violations"); n != 0 {
		t.Errorf("%s: %v conservation violations", r.ID, n)
	}
}

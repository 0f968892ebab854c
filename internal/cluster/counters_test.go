package cluster

import (
	"bytes"
	"hash/fnv"
	"io"
	"strings"
	"testing"

	"olympian/internal/gpu"
	"olympian/internal/obs"
)

// observedRun is one differential scenario run on the single-heap engine with
// the recorder and the telemetry plane attached.
type observedRun struct {
	name         string
	timelineHash uint64
	promHash     uint64
	// totals sums every counter family ending in _total over its labels;
	// twins holds the Stats value each family with a twin must equal.
	totals, twins map[string]float64
}

// observedRuns runs the four sharded and the four LLM differential scenarios
// with obs and telemetry on.
func observedRuns(t *testing.T) []observedRun {
	t.Helper()
	var runs []observedRun
	for _, sc := range shardedScenarios() {
		rec := obs.NewRecorder()
		c := runShardedTelemetry(t, sc, SingleHeap, rec)
		run := observe(t, "sharded/"+sc.name, rec, c.Timeline().WriteJSON)
		run.twins = shardedTwins(c, c.Stats())
		runs = append(runs, run)
	}
	for _, sc := range llmScenarios() {
		rec := obs.NewRecorder()
		cfg := sc.cfg()
		cfg.Obs = rec
		cfg.Telemetry = testTelemetry()
		c, err := NewLLM(cfg, SingleHeap)
		if err != nil {
			t.Fatal(err)
		}
		st := driveLLM(t, c, sc)
		run := observe(t, "llm/"+sc.name, rec, c.Timeline().WriteJSON)
		run.twins = llmTwins(c, st)
		runs = append(runs, run)
	}
	return runs
}

// observe hashes a finished run's timeline JSON and merged Prometheus
// exposition and sums its _total families.
func observe(t *testing.T, name string, rec *obs.Recorder, writeTimeline func(io.Writer) error) observedRun {
	t.Helper()
	var tl, prom bytes.Buffer
	if err := writeTimeline(&tl); err != nil {
		t.Fatal(err)
	}
	if err := rec.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	run := observedRun{name: name, timelineHash: fnv64(tl.Bytes()), promHash: fnv64(prom.Bytes()), totals: map[string]float64{}}
	for key, v := range rec.Registry().Snapshot() {
		family, _, _ := strings.Cut(key, "{")
		if strings.HasSuffix(family, "_total") {
			run.totals[family] += v
		}
	}
	return run
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// pinnedOutputs holds the fnv-64a hashes of each observed run's timeline
// JSON and merged Prometheus exposition. They were taken while every counter
// was still a separately incremented series, so they prove that reading
// counters off the Stats tallies kept every name, label set, value and
// registration point.
var pinnedOutputs = map[string][2]uint64{
	"sharded/chaos":            {0x462d831de4b4ff44, 0xc6fe671d072fe9f1},
	"sharded/cluster":          {0xb89ba213475e6a42, 0xe42778df017c05fd},
	"sharded/crash":            {0x889162b43b3fcea4, 0x9e1f0490a05b9851},
	"sharded/overload":         {0x636458dd3d1d40, 0xd248c76180e488f0},
	"llm/disaggregated":        {0x3aaac8d0c4e29690, 0x99cb56f28d10d76e},
	"llm/crash-mid-generation": {0x16eb41457b0ced74, 0xaea6395594a0369c},
	"llm/kv-pressure":          {0x87697a4752244095, 0xf67f1d9f283153ea},
	"llm/overload-control":     {0x90011d8ede18e3d, 0x25c515719e8c0a9a},
}

// TestObservedOutputsPinned guards the bytes of the metrics and telemetry
// planes. The cross-engine identity tests compare two engines with each
// other, so a wrong counter on both would pass them; this test compares
// against fixed hashes instead.
func TestObservedOutputsPinned(t *testing.T) {
	for _, run := range observedRuns(t) {
		want, ok := pinnedOutputs[run.name]
		if !ok {
			t.Errorf("%s: no pinned hashes", run.name)
			continue
		}
		if run.timelineHash != want[0] {
			t.Errorf("%s: timeline JSON hash %#x, want %#x", run.name, run.timelineHash, want[0])
		}
		if run.promHash != want[1] {
			t.Errorf("%s: Prometheus exposition hash %#x, want %#x", run.name, run.promHash, want[1])
		}
	}
}

// gpuTwins maps the device counter families to the summed gpu.Stats of
// devs.
func gpuTwins(devs []*gpu.Device) map[string]float64 {
	w := map[string]float64{}
	for _, d := range devs {
		st := d.Stats()
		w["olympian_gpu_kernels_total"] += float64(st.KernelsRun)
		w["olympian_gpu_kernel_faults_total"] += float64(st.KernelFaults)
		w["olympian_gpu_crashes_total"] += float64(st.Crashes)
		w["olympian_gpu_revives_total"] += float64(st.Revives)
	}
	return w
}

// shardedTwins maps each counter family a ShardedCluster registers to the
// Stats value it must equal after the run, summed over devices and classes.
func shardedTwins(c *ShardedCluster, st Stats) map[string]float64 {
	devs := make([]*gpu.Device, len(c.servers))
	for i, srv := range c.servers {
		devs[i] = srv.Device()
	}
	w := gpuTwins(devs)
	for _, c := range st.Degraded.ByClass {
		w["olympian_serving_completed_total"] += float64(c.Completed)
		w["olympian_serving_failed_total"] += float64(c.Shed + c.Expired + c.Failed)
	}
	w["olympian_overload_limit_cuts_total"] = 0 // no limiter without admission control
	for _, d := range st.PerDevice {
		w["olympian_serving_batches_total"] += float64(d.Batches)
		for _, a := range d.Admission {
			w["olympian_overload_limit_cuts_total"] += float64(a.Decreases)
		}
	}
	for family, v := range map[string]int{
		"olympian_executor_kernel_retries_total": st.Degraded.KernelRetries,
		"olympian_serving_batch_retries_total":   st.Degraded.BatchRetries,
		"olympian_serving_evictions_total":       st.Degraded.Evictions,
		"olympian_serving_deadline_misses_total": st.Degraded.DeadlineMisses,
		"olympian_cluster_routes_total":          st.Requests,
		"olympian_cluster_failovers_total":       st.Failovers,
		"olympian_cluster_crashes_total":         st.Crashes,
		"olympian_cluster_revives_total":         st.Revives,
		"olympian_cluster_hedges_total":          st.Hedges,
		"olympian_cluster_hedge_wins_total":      st.HedgeWins,
		"olympian_cluster_partitions_total":      st.Partitions,
	} {
		w[family] = float64(v)
	}
	return w
}

// llmTwins is shardedTwins for an LLMCluster.
func llmTwins(c *LLMCluster, st LLMClusterStats) map[string]float64 {
	devs := make([]*gpu.Device, len(c.servers))
	for i, srv := range c.servers {
		devs[i] = srv.Device()
	}
	w := gpuTwins(devs)
	for _, d := range st.PerDevice {
		for family, v := range map[string]int{
			"olympian_llm_requests_total":         d.Requests,
			"olympian_llm_completed_total":        d.Completed,
			"olympian_llm_failed_total":           d.Failed,
			"olympian_llm_tokens_total":           d.TokensEmitted,
			"olympian_llm_preemptions_total":      d.Preemptions,
			"olympian_llm_handoffs_total":         d.HandedOff,
			"olympian_llm_ingests_total":          d.Ingested,
			"olympian_llm_partials_total":         d.Partial,
			"olympian_llm_degraded_events_total":  d.DegradedEvents,
			"olympian_llm_admission_shed_total":   d.AdmissionSheds,
			"olympian_llm_ttft_expired_total":     d.Expired,
			"olympian_llm_truncated_tokens_total": d.TruncatedTokens,
			"olympian_llm_slo_attained_total":     d.SLOAttained,
			"olympian_llm_tpot_miss_total":        d.TPOTMisses,
		} {
			w[family] += float64(v)
		}
	}
	for family, v := range map[string]int{
		"olympian_cluster_routes_total":           st.Requests + st.Transfers,
		"olympian_cluster_failovers_total":        st.Failovers,
		"olympian_cluster_crashes_total":          st.Crashes,
		"olympian_cluster_revives_total":          st.Revives,
		"olympian_cluster_kv_handoffs_total":      st.Transfers,
		"olympian_cluster_llm_retries_total":      st.Retries,
		"olympian_cluster_llm_retry_denied_total": st.RetryDenied,
	} {
		w[family] = float64(v)
	}
	return w
}

// noTwin lists the counter families no Stats field matches, each with the
// reason. A family here is checked only where the fleet kind has no twin.
var noTwin = map[string]string{
	"olympian_serving_requests_total":    "counts requests admitted to a model queue; Degraded.ByClass[c].Submitted also counts dead-device, shed and queue-full arrivals",
	"olympian_gpu_stalls_total":          "the device keeps no stall tally; Degraded.DeviceStalls counts stalls when the injector draws them, including ones a dead device or the run's end never fires",
	"olympian_executor_jobs_total":       "the executor keeps no job tally",
	"olympian_executor_job_aborts_total": "the executor keeps no abort tally; Degraded.JobAborts counts injected aborts only, not crash or retry-exhaustion aborts",
	"olympian_cluster_drains_total":      "stall and crash drains on the device shard; no tally",
	"olympian_llm_kv_exhausted_total":    "KV-exhaustion failures are folded into Failed; no separate tally",
	"olympian_llm_decode_steps_total":    "the LLM server keeps no step tally",
	"olympian_llm_prefills_total":        "the LLM server keeps no prefill-pass tally (recomputes included)",
}

// TestCountersAgreeWithStats checks that every _total family either sums to
// its Stats twin or is listed in noTwin, so a new counter has to choose.
func TestCountersAgreeWithStats(t *testing.T) {
	for _, run := range observedRuns(t) {
		if len(run.totals) == 0 {
			t.Fatalf("%s: no counter families registered", run.name)
		}
		for family, got := range run.totals {
			want, ok := run.twins[family]
			if !ok {
				if _, listed := noTwin[family]; !listed {
					t.Errorf("%s: counter %s has neither a Stats twin nor a noTwin reason", run.name, family)
				}
				continue
			}
			if got != want {
				t.Errorf("%s: %s = %v, Stats twin = %v", run.name, family, got, want)
			}
		}
	}
}

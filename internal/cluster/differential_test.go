package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"olympian/internal/faults"
	"olympian/internal/gpu"
	"olympian/internal/model"
	"olympian/internal/obs"
	"olympian/internal/overload"
	"olympian/internal/planner"
	"olympian/internal/telemetry"
	"olympian/internal/trace"
)

// shardedScenario is one differential-test workload: a cluster config
// builder (fresh per run — policies are stateful) plus an arrival pattern.
type shardedScenario struct {
	name    string
	cfg     func() Config
	models  []string
	classes []overload.Class // cycled per arrival; nil = all interactive
	n       int              // arrivals per model
	gap     time.Duration
}

// shardedScenarios mirror the chaos, cluster, and overload experiment
// shapes: fault-heavy single device, placed multi-device with failover, and
// admission control with hedging under class pressure.
func shardedScenarios() []shardedScenario {
	return []shardedScenario{
		{
			name: "chaos",
			cfg: func() Config {
				return Config{
					Seed:    11,
					Devices: []gpu.Spec{gpu.GTX1080Ti},
					Faults: []*faults.Plan{{
						KernelFailRate: 0.02,
						StallEvery:     18 * time.Millisecond,
						StallDur:       25 * time.Millisecond,
					}},
					BatchTimeout: 4 * time.Millisecond,
				}
			},
			models: []string{model.Inception},
			n:      30,
			gap:    500 * time.Microsecond,
		},
		{
			name: "cluster",
			cfg: func() Config {
				return Config{
					Seed:    7,
					Devices: []gpu.Spec{gpu.GTX1080Ti, gpu.GTX1080Ti, gpu.GTX1080Ti, gpu.GTX1080Ti},
					Faults: []*faults.Plan{
						{StallEvery: 10 * time.Millisecond, StallDur: 40 * time.Millisecond},
						nil, nil, nil,
					},
					Placement: &planner.Placement{Replicas: []planner.Replica{
						{Model: model.Inception, Batch: 1, Device: 0},
						{Model: model.Inception, Batch: 1, Device: 1},
						{Model: model.ResNet50, Batch: 1, Device: 1},
						{Model: model.ResNet50, Batch: 1, Device: 2},
						{Model: model.ResNet50, Batch: 1, Device: 3},
					}},
					Route:        CostWeighted,
					BatchTimeout: 8 * time.Millisecond,
				}
			},
			models: []string{model.Inception, model.ResNet50},
			n:      80,
			gap:    500 * time.Microsecond,
		},
		{
			name: "crash",
			cfg: func() Config {
				return Config{
					Seed:    31,
					Devices: []gpu.Spec{gpu.GTX1080Ti, gpu.GTX1080Ti, gpu.GTX1080Ti, gpu.GTX1080Ti},
					Faults: []*faults.Plan{
						// Device 0: crash-with-restart, twice.
						{CrashEvery: 12 * time.Millisecond, CrashRecovery: 10 * time.Millisecond, MaxCrashes: 2},
						// Device 1: one permanent crash mid-run.
						{Crashes: []faults.CrashEvent{{At: 20 * time.Millisecond}}},
						// Device 2: a router-partition window (no drain).
						{Partitions: []faults.Window{{From: 8 * time.Millisecond, Dur: 10 * time.Millisecond}}},
						// Device 3: clean — every model keeps a live replica.
						nil,
					},
					Placement: &planner.Placement{Replicas: []planner.Replica{
						{Model: model.Inception, Batch: 1, Device: 0},
						{Model: model.Inception, Batch: 1, Device: 1},
						{Model: model.Inception, Batch: 1, Device: 3},
						{Model: model.ResNet50, Batch: 1, Device: 1},
						{Model: model.ResNet50, Batch: 1, Device: 2},
						{Model: model.ResNet50, Batch: 1, Device: 3},
					}},
					BatchTimeout: 4 * time.Millisecond,
				}
			},
			models: []string{model.Inception, model.ResNet50},
			n:      60,
			gap:    700 * time.Microsecond,
		},
		{
			name: "overload",
			cfg: func() Config {
				return Config{
					Seed:    23,
					Devices: []gpu.Spec{gpu.GTX1080Ti, gpu.GTX1080Ti},
					Faults: []*faults.Plan{
						nil,
						{StallEvery: 20 * time.Millisecond, StallDur: 15 * time.Millisecond},
					},
					MaxQueue:     24,
					Deadline:     60 * time.Millisecond,
					HedgeDelay:   8 * time.Millisecond,
					BatchTimeout: 3 * time.Millisecond,
					Admission:    &overload.AIMDConfig{Initial: 6, Beta: 0.5, Cooldown: 2 * time.Millisecond},
				}
			},
			models:  []string{model.Inception},
			classes: []overload.Class{overload.Interactive, overload.Batch, overload.Interactive},
			n:       40,
			gap:     300 * time.Microsecond,
		},
	}
}

// runSharded executes one scenario on the given engine and returns its
// stats. The recorder, when non-nil, receives the merged per-shard traces.
func runSharded(t *testing.T, sc shardedScenario, engine Engine, rec *obs.Recorder) Stats {
	t.Helper()
	cfg := sc.cfg()
	cfg.Obs = rec
	c, err := NewSharded(cfg, engine)
	if err != nil {
		t.Fatal(err)
	}
	driveSharded(t, c, sc)
	return c.Stats()
}

// driveSharded submits a scenario's arrivals, runs the cluster to quiescence,
// and folds the observability planes.
func driveSharded(t *testing.T, c *ShardedCluster, sc shardedScenario) {
	t.Helper()
	env := c.FrontEnv()
	for _, m := range sc.models {
		m := m
		for i := 0; i < sc.n; i++ {
			class := overload.Interactive
			if len(sc.classes) > 0 {
				class = sc.classes[i%len(sc.classes)]
			}
			env.Schedule(time.Duration(i)*sc.gap, func() {
				if _, err := c.SubmitEvent(m, class); err != nil {
					t.Errorf("submit %s: %v", m, err)
				}
			})
		}
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	c.FinishObs("run:" + sc.name)
}

// runShardedTelemetry is runSharded with the virtual-clock telemetry plane
// attached: per-shard samplers over the default serving SLOs, merged into one
// timeline by FinishObs. It returns the finished cluster.
func runShardedTelemetry(t *testing.T, sc shardedScenario, engine Engine, rec *obs.Recorder) *ShardedCluster {
	t.Helper()
	cfg := sc.cfg()
	cfg.Obs = rec
	cfg.Telemetry = testTelemetry()
	c, err := NewSharded(cfg, engine)
	if err != nil {
		t.Fatal(err)
	}
	driveSharded(t, c, sc)
	return c
}

// testTelemetry is the telemetry plane the differential tests attach: a 1ms
// scrape over the default serving SLOs and burn-rate rules.
func testTelemetry() *telemetry.Config {
	return &telemetry.Config{
		Interval: time.Millisecond,
		SLOs:     telemetry.DefaultServingSLOs(),
		Rules:    telemetry.DefaultRules(),
	}
}

// renderObs renders a recorder's lifecycle trace and metrics to comparable
// byte strings.
func renderObs(t *testing.T, rec *obs.Recorder) (string, string) {
	t.Helper()
	var tr, pm bytes.Buffer
	if err := trace.WriteLifecycleTimeline(&tr, rec.Trace(), nil); err != nil {
		t.Fatal(err)
	}
	if err := rec.Registry().WritePrometheus(&pm); err != nil {
		t.Fatal(err)
	}
	return tr.String(), pm.String()
}

// TestShardedEnginesBitIdentical is the tentpole invariant: for every
// scenario, the sharded engine must produce stats, decision hashes,
// lifecycle trace bytes and metrics identical to the single-heap reference
// engine.
func TestShardedEnginesBitIdentical(t *testing.T) {
	for _, sc := range append(shardedScenarios(), recycleScenario()) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			refRec := obs.NewRecorder()
			ref := runSharded(t, sc, SingleHeap, refRec)
			refTrace, refProm := renderObs(t, refRec)
			if ref.DecisionHash == 0 {
				t.Fatal("reference run produced a zero decision hash")
			}
			if ref.Completed == 0 {
				t.Fatalf("reference run completed nothing: %+v", ref)
			}
			rec := obs.NewRecorder()
			got := runSharded(t, sc, Sharded, rec)
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("stats differ from single-heap reference\nref: %+v\ngot: %+v", ref, got)
			}
			if got.DecisionHash != ref.DecisionHash {
				t.Errorf("decision hash %x, want %x", got.DecisionHash, ref.DecisionHash)
			}
			gotTrace, gotProm := renderObs(t, rec)
			if gotTrace != refTrace {
				t.Error("lifecycle trace bytes differ from single-heap reference")
			}
			if gotProm != refProm {
				t.Errorf("metrics differ from single-heap reference:\n%s\nvs\n%s", gotProm, refProm)
			}
		})
	}
}

// TestShardedTelemetryBitIdentical extends the engine-identity invariant to
// the telemetry plane: with per-shard samplers attached, the merged timeline
// JSON, the alert log, and the full Prometheus exposition must be
// byte-identical between the single-heap reference and the sharded engine —
// and attaching the plane must not perturb the simulation itself (stats
// match an unsampled, un-observed run).
func TestShardedTelemetryBitIdentical(t *testing.T) {
	sc := shardedScenarios()[3] // overload: queue pressure burns the latency SLOs
	refRec := obs.NewRecorder()
	ref := runShardedTelemetry(t, sc, SingleHeap, refRec)
	refStats, refTL := ref.Stats(), ref.Timeline()
	if refTL == nil || refTL.Ticks == 0 {
		t.Fatal("reference run sampled no telemetry ticks")
	}
	var refJSON bytes.Buffer
	if err := refTL.WriteJSON(&refJSON); err != nil {
		t.Fatal(err)
	}
	var refHists struct {
		Hists map[string]json.RawMessage `json:"hists"`
	}
	if err := json.Unmarshal(refJSON.Bytes(), &refHists); err != nil {
		t.Fatal(err)
	}
	if len(refHists.Hists) == 0 {
		t.Fatal("no histogram families reached the timeline")
	}
	_, refProm := renderObs(t, refRec)

	// Zero perturbation: the sampler only reads, so the sampled run's stats
	// equal a run with no recorder and no sampler at all.
	bare := runSharded(t, sc, SingleHeap, nil)
	if !reflect.DeepEqual(refStats, bare) {
		t.Errorf("telemetry sampling perturbed the simulation\nsampled: %+v\nbare:    %+v", refStats, bare)
	}

	rec := obs.NewRecorder()
	got := runShardedTelemetry(t, sc, Sharded, rec)
	gotStats, gotTL := got.Stats(), got.Timeline()
	if !reflect.DeepEqual(refStats, gotStats) {
		t.Error("stats differ from single-heap reference")
	}
	if gotTL == nil {
		t.Fatal("sharded run produced no timeline")
	}
	var gotJSON bytes.Buffer
	if err := gotTL.WriteJSON(&gotJSON); err != nil {
		t.Fatal(err)
	}
	if gotJSON.String() != refJSON.String() {
		t.Error("timeline JSON differs from single-heap reference")
	}
	if !reflect.DeepEqual(refTL.Alerts, gotTL.Alerts) {
		t.Errorf("alert log differs\nref: %+v\ngot: %+v", refTL.Alerts, gotTL.Alerts)
	}
	if _, gotProm := renderObs(t, rec); gotProm != refProm {
		t.Error("Prometheus exposition differs from single-heap reference")
	}
}

// TestShardedFailoverCompletes: the message-passing failover path must still
// land every request despite stalls, and the engines must agree on it.
func TestShardedFailoverCompletes(t *testing.T) {
	sc := shardedScenarios()[1]
	st := runSharded(t, sc, Sharded, nil)
	if st.Degraded.DeviceStalls == 0 {
		t.Fatal("no stall fired; the fault plan never engaged")
	}
	if st.Failovers == 0 {
		t.Fatal("stall drained no queued requests into failover")
	}
	if st.Requests != 160 || st.Completed+st.Failed != 160 {
		t.Fatalf("request accounting wrong: %+v", st)
	}
	if st.Failed != 0 {
		t.Fatalf("%d requests failed despite failover", st.Failed)
	}
}

// TestShardedCrashRecovery: the crash scenario must exercise every recovery
// mechanism — permanent death, crash-with-restart (warm-up charged, replica
// re-admitted), and a partition window — while conserving every request, and
// a same-seed rerun must be bit-identical. Cross-engine identity for the
// same scenario is enforced by TestShardedEnginesBitIdentical.
func TestShardedCrashRecovery(t *testing.T) {
	sc := shardedScenarios()[2]
	if sc.name != "crash" {
		t.Fatalf("scenario order changed: got %q, want crash", sc.name)
	}
	st := runSharded(t, sc, Sharded, nil)
	if st.Crashes < 2 {
		t.Fatalf("crashes = %d, want the restarting and the permanent device to fire", st.Crashes)
	}
	if st.Revives == 0 {
		t.Fatal("no replica was revived; the restart path never engaged")
	}
	if st.Partitions == 0 {
		t.Fatal("no partition window began")
	}
	if st.MTTR <= 0 {
		t.Fatalf("MTTR = %v with %d revives", st.MTTR, st.Revives)
	}
	if st.Unavailability <= 0 {
		t.Fatalf("unavailability = %v with a permanently dead device", st.Unavailability)
	}
	if st.Completed+st.Failed != st.Requests {
		t.Fatalf("request conservation violated: %d completed + %d failed != %d submitted",
			st.Completed, st.Failed, st.Requests)
	}
	if st.Completed == 0 {
		t.Fatal("nothing completed despite two live replicas per model")
	}
	again := runSharded(t, sc, Sharded, nil)
	if !reflect.DeepEqual(st, again) {
		t.Fatalf("same-seed recovery runs differ\nfirst: %+v\nagain: %+v", st, again)
	}
}

// TestShardedHedgeRaces: hedged duplicates race and losers are cancelled
// across shards without double-counting completions.
func TestShardedHedgeRaces(t *testing.T) {
	sc := shardedScenarios()[3]
	st := runSharded(t, sc, Sharded, nil)
	if st.Hedges == 0 {
		t.Fatal("no hedge dispatched; scenario mistuned")
	}
	if st.Completed+st.Failed != st.Requests {
		t.Fatalf("hedging double-counted requests: %+v", st)
	}
}

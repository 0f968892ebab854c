package cluster

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"olympian/internal/faults"
	"olympian/internal/gpu"
	"olympian/internal/model"
	"olympian/internal/obs"
	"olympian/internal/overload"
)

// llmScenario is one LLM differential workload: a fleet config builder plus
// a deterministic arrival pattern with per-request sequence dimensions and an
// optional per-request class (nil = all Batch).
type llmScenario struct {
	name  string
	cfg   func() LLMConfig
	n     int
	gap   time.Duration
	dims  func(i int) (prompt, output int)
	class func(i int) overload.Class
}

// llmScenarios mirror the llm experiment shapes: a clean disaggregated
// fleet, one with crashes mid-generation on both roles, and one with a
// starved decode pool that preempts continuously.
func llmScenarios() []llmScenario {
	return []llmScenario{
		{
			name: "disaggregated",
			cfg: func() LLMConfig {
				return LLMConfig{
					Seed:            17,
					Model:           model.LLMTiny,
					PrefillReplicas: 2,
					DecodeReplicas:  2,
				}
			},
			n:   60,
			gap: 250 * time.Microsecond,
			dims: func(i int) (int, int) {
				return 16 + (i%5)*32, 8 + (i%9)*16
			},
		},
		{
			name: "crash-mid-generation",
			cfg: func() LLMConfig {
				return LLMConfig{
					Seed:            29,
					Model:           model.LLMTiny,
					PrefillReplicas: 1,
					DecodeReplicas:  2,
					Faults: []*faults.Plan{
						// Prefill replica: transient kernel faults.
						{KernelFailRate: 0.02},
						// First decode replica: crash with restart mid-run.
						{Crashes: []faults.CrashEvent{{At: 5 * time.Millisecond, Recovery: 8 * time.Millisecond}}},
						// Second decode replica: a permanent crash late.
						{Crashes: []faults.CrashEvent{{At: 18 * time.Millisecond}}},
					},
				}
			},
			n:   48,
			gap: 300 * time.Microsecond,
			dims: func(i int) (int, int) {
				return 24 + (i%4)*40, 60 + (i%5)*30
			},
		},
		{
			name: "kv-pressure",
			cfg: func() LLMConfig {
				weights, _ := model.LLMWeightsBytes(model.LLMTiny)
				spec := gpu.GTX1080Ti
				spec.Name = "starved"
				spec.MemoryBytes = weights + (512 << 10)
				return LLMConfig{
					Seed:            41,
					Model:           model.LLMTiny,
					PrefillReplicas: 1,
					DecodeReplicas:  1,
					DecodeSpec:      spec,
					MaxSeqs:         6,
				}
			},
			n:   30,
			gap: 200 * time.Microsecond,
			dims: func(i int) (int, int) {
				return 40 + (i%3)*24, 50 + (i%4)*25
			},
		},
		{
			name: "overload-control",
			cfg: func() LLMConfig {
				weights, _ := model.LLMWeightsBytes(model.LLMTiny)
				spec := gpu.GTX1080Ti
				spec.Name = "starved"
				spec.MemoryBytes = weights + (640 << 10)
				return LLMConfig{
					Seed:            53,
					Model:           model.LLMTiny,
					PrefillReplicas: 2,
					DecodeReplicas:  2,
					DecodeSpec:      spec,
					MaxQueue:        2,
					Route:           LeastKVPressure,
					TTFTDeadline:    time.Millisecond,
					TPOTBudget:      2 * time.Millisecond,
					Admission:       &overload.TokenAIMDConfig{Initial: 384, Min: 128, Max: 2048},
					KVWatermark:     0.7,
					DegradedTail:    4,
					MaxRetries:      2,
				}
			},
			n:   48,
			gap: 25 * time.Microsecond,
			dims: func(i int) (int, int) {
				return 24 + (i%5)*32, 30 + (i%6)*25
			},
			class: func(i int) overload.Class {
				if i%3 == 0 {
					return overload.Interactive
				}
				return overload.Batch
			},
		},
	}
}

// runLLM executes one scenario on the given engine and returns its stats.
func runLLM(t *testing.T, sc llmScenario, engine Engine, workers int, rec *obs.Recorder) LLMClusterStats {
	t.Helper()
	cfg := sc.cfg()
	cfg.Workers = workers
	cfg.Obs = rec
	c, err := NewLLM(cfg, engine)
	if err != nil {
		t.Fatal(err)
	}
	return driveLLM(t, c, sc)
}

// driveLLM submits a scenario's arrivals, runs the fleet to quiescence, folds
// the observability planes, and returns the conservation-checked stats.
func driveLLM(t *testing.T, c *LLMCluster, sc llmScenario) LLMClusterStats {
	t.Helper()
	env := c.FrontEnv()
	for i := 0; i < sc.n; i++ {
		prompt, output := sc.dims(i)
		class := overload.Batch
		if sc.class != nil {
			class = sc.class(i)
		}
		env.Schedule(time.Duration(i)*sc.gap, func() {
			c.SubmitEvent(class, prompt, output)
		})
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	c.FinishObs("run:llm-" + sc.name)
	st := c.Stats()
	checkLLMClusterConservation(t, c, st)
	return st
}

// TestLLMEnginesBitIdentical is the disaggregation invariant: for every
// llm-shaped scenario — including crashes mid-generation and KV-pressure
// preemption — the parallel engine at several worker counts, under
// GOMAXPROCS 1 and 4, must produce stats, decision hashes, and lifecycle
// trace bytes identical to the single-heap reference.
func TestLLMEnginesBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sc := range llmScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			refRec := obs.NewRecorder()
			ref := runLLM(t, sc, SingleHeap, 0, refRec)
			refTrace, refProm := renderObs(t, refRec)
			if ref.DecisionHash == 0 {
				t.Fatal("reference run produced a zero decision hash")
			}
			if ref.Completed == 0 {
				t.Fatalf("reference run completed nothing: %+v", ref)
			}
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				for _, workers := range []int{1, 2} {
					rec := obs.NewRecorder()
					got := runLLM(t, sc, Sharded, workers, rec)
					if !reflect.DeepEqual(ref, got) {
						t.Errorf("procs=%d workers=%d: stats differ from single-heap reference\nref: %+v\ngot: %+v", procs, workers, ref, got)
					}
					if got.DecisionHash != ref.DecisionHash {
						t.Errorf("procs=%d workers=%d: decision hash %x, want %x", procs, workers, got.DecisionHash, ref.DecisionHash)
					}
					gotTrace, gotProm := renderObs(t, rec)
					if gotTrace != refTrace {
						t.Errorf("procs=%d workers=%d: lifecycle trace bytes differ from single-heap reference", procs, workers)
					}
					if gotProm != refProm {
						t.Errorf("procs=%d workers=%d: metrics differ from single-heap reference", procs, workers)
					}
				}
			}
		})
	}
}

// TestLLMCrashScenarioExercisesFailover guards the crash scenario against
// rotting into a no-op: it must actually crash devices mid-generation,
// fail over, and leave partial work visible.
func TestLLMCrashScenarioExercisesFailover(t *testing.T) {
	st := runLLM(t, llmScenarios()[1], SingleHeap, 0, nil)
	if st.Crashes < 2 {
		t.Fatalf("want both decode crashes, got %+v", st)
	}
	if st.Failovers == 0 {
		t.Fatalf("crash scenario drove no failovers: %+v", st)
	}
	if st.Completed == 0 {
		t.Fatalf("nothing survived the crashes: %+v", st)
	}
}

// TestLLMNegativeMaxFailoversDisables: as in Config, a negative
// MaxFailovers turns failover off — the crash scenario still crashes
// devices, but no drained attempt is re-dispatched.
func TestLLMNegativeMaxFailoversDisables(t *testing.T) {
	sc := llmScenarios()[1]
	base := sc.cfg
	sc.cfg = func() LLMConfig {
		cfg := base()
		cfg.MaxFailovers = -1
		return cfg
	}
	st := runLLM(t, sc, SingleHeap, 0, nil)
	if st.Crashes == 0 {
		t.Fatalf("crash scenario crashed nothing: %+v", st)
	}
	if st.Failovers != 0 {
		t.Fatalf("MaxFailovers -1 still failed over %d times", st.Failovers)
	}
}

// TestLLMPressureScenarioPreempts guards the kv-pressure scenario likewise.
func TestLLMPressureScenarioPreempts(t *testing.T) {
	st := runLLM(t, llmScenarios()[2], SingleHeap, 0, nil)
	if st.Preemptions == 0 {
		t.Fatalf("pressure scenario never preempted: %+v", st)
	}
}

// TestLLMOverloadScenarioDegrades guards the overload-control scenario: it
// must actually engage the admission gate or TTFT expiry, truncate batch
// budgets in degraded mode, and retry capacity rejections — otherwise the
// bit-identity run over it proves nothing.
func TestLLMOverloadScenarioDegrades(t *testing.T) {
	st := runLLM(t, llmScenarios()[3], SingleHeap, 0, nil)
	if st.Shed+st.Expired == 0 {
		t.Fatalf("overload scenario shed and expired nothing: %+v", st)
	}
	if st.TruncatedTokens == 0 {
		t.Fatalf("degraded mode never truncated: %+v", st)
	}
	if st.Retries == 0 {
		t.Fatalf("no capacity rejection retried: %+v", st)
	}
	if st.Completed == 0 {
		t.Fatalf("nothing survived overload control: %+v", st)
	}
	// Degradation concentrates in the batch class.
	batch, inter := st.PerClass[overload.Batch], st.PerClass[overload.Interactive]
	if batch.TruncatedTokens != st.TruncatedTokens || inter.TruncatedTokens != 0 {
		t.Fatalf("truncation leaked into the interactive class: batch %d, interactive %d, total %d",
			batch.TruncatedTokens, inter.TruncatedTokens, st.TruncatedTokens)
	}
}

// TestLLMSlimMatchesRetained: slim mode must change memory behavior only —
// for every llm scenario on both engines, the stats and the streamed
// decision fingerprint equal the retained run's, and no request is kept.
func TestLLMSlimMatchesRetained(t *testing.T) {
	for _, sc := range llmScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			for _, engine := range []Engine{SingleHeap, Sharded} {
				full := runLLM(t, sc, engine, 0, nil)
				cfg := sc.cfg()
				cfg.Slim = true
				c, err := NewLLM(cfg, engine)
				if err != nil {
					t.Fatal(err)
				}
				slim := driveLLM(t, c, sc)
				if c.Requests() != nil {
					t.Fatalf("%v: slim mode retained %d requests", engine, len(c.Requests()))
				}
				if slim.DecisionHash != full.DecisionHash {
					t.Errorf("%v: slim decision hash %x, retained %x", engine, slim.DecisionHash, full.DecisionHash)
				}
				if !reflect.DeepEqual(full, slim) {
					t.Errorf("%v: slim stats differ from retained\nfull: %+v\nslim: %+v", engine, full, slim)
				}
			}
		})
	}
}

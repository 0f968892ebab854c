package invariant

import (
	"testing"
	"time"

	"olympian/internal/cluster"
	"olympian/internal/faults"
	"olympian/internal/gpu"
	"olympian/internal/model"
	"olympian/internal/overload"
	"olympian/internal/serving"
)

// runLLMFleet drives a disaggregated fleet through crashes and KV pressure
// and returns its audited stats.
func runLLMFleet(t *testing.T, cfg cluster.LLMConfig, n int) (cluster.LLMClusterStats, []Violation) {
	t.Helper()
	c, err := cluster.NewLLM(cfg, cluster.SingleHeap)
	if err != nil {
		t.Fatal(err)
	}
	i := -1
	st, vs, err := DriveLLM(c, n, func() Arrival {
		i++
		return Arrival{At: time.Duration(i) * 250 * time.Microsecond, Class: overload.Batch,
			Prompt: 16 + (i%5)*32, Output: 20 + (i%6)*20}
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	return st, vs
}

func TestCheckLLMPassesOnFaultedRun(t *testing.T) {
	weights, err := model.LLMWeightsBytes(model.LLMTiny)
	if err != nil {
		t.Fatal(err)
	}
	starved := gpu.GTX1080Ti
	starved.Name = "starved"
	starved.MemoryBytes = weights + (512 << 10)
	st, vs := runLLMFleet(t, cluster.LLMConfig{
		Seed:            21,
		Model:           model.LLMTiny,
		PrefillReplicas: 1,
		DecodeReplicas:  2,
		DecodeSpec:      starved,
		Faults: []*faults.Plan{
			nil,
			{Crashes: []faults.CrashEvent{{At: 4 * time.Millisecond, Recovery: 6 * time.Millisecond}}},
			nil,
		},
	}, 40)
	if st.Crashes == 0 || st.Preemptions == 0 {
		t.Fatalf("run exercised neither crash nor preemption: %+v", st)
	}
	if len(vs) != 0 {
		t.Fatalf("violations on a healthy run: %v", vs)
	}
}

func TestCheckLLMStatsCatchesViolations(t *testing.T) {
	good := cluster.LLMClusterStats{
		Requests: 3, Completed: 2, Failed: 1,
		TokensDelivered: 10, TokensEmitted: 10,
		Partial: 1, PartialTokens: 4,
		PerDevice: []serving.LLMStats{{
			Requests: 3, Completed: 2, Failed: 1,
			TokensEmitted: 10, EmittedByRequests: 10,
			Partial: 1, PartialTokens: 4,
		}},
	}
	good.PerClass[0].Completed = 2
	good.PerClass[0].Failed = 1
	if vs := CheckLLMStats(good); len(vs) != 0 {
		t.Fatalf("false positives: %v", vs)
	}
	cases := []struct {
		rule   string
		mutate func(*cluster.LLMClusterStats)
	}{
		{"llm-cluster-conservation", func(s *cluster.LLMClusterStats) { s.Completed = 1 }},
		{"llm-cluster-token-conservation", func(s *cluster.LLMClusterStats) { s.TokensEmitted = 9 }},
		{"revive-count", func(s *cluster.LLMClusterStats) { s.Revives = 1 }},
		{"llm-partial-accounting", func(s *cluster.LLMClusterStats) { s.Partial = 0 }},
		{"llm-serving-conservation", func(s *cluster.LLMClusterStats) { s.PerDevice[0].Shed = 1 }},
		{"llm-token-conservation", func(s *cluster.LLMClusterStats) { s.PerDevice[0].EmittedByRequests = 9 }},
		{"llm-kv-leak", func(s *cluster.LLMClusterStats) { s.PerDevice[0].KV.BlocksInUse = 2 }},
		{"llm-truncate-conservation", func(s *cluster.LLMClusterStats) { s.TruncatedTokens = 3 }},
		{"llm-class-conservation", func(s *cluster.LLMClusterStats) { s.PerClass[0].Completed = 1 }},
		{"llm-truncate-accounting", func(s *cluster.LLMClusterStats) {
			s.PerDevice[0].TruncatedTokens = 5
			s.TruncatedTokens = 5
		}},
	}
	for _, tc := range cases {
		st := good
		st.PerDevice = append([]serving.LLMStats(nil), good.PerDevice...)
		tc.mutate(&st)
		vs := CheckLLMStats(st)
		found := false
		for _, v := range vs {
			if v.Rule == tc.rule {
				found = true
			}
		}
		if !found {
			t.Errorf("mutation for %q went undetected (got %v)", tc.rule, vs)
		}
	}
}

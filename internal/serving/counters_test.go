package serving

import (
	"strings"
	"testing"
	"time"

	"olympian/internal/faults"
	"olympian/internal/model"
	"olympian/internal/obs"
	"olympian/internal/overload"
	"olympian/internal/sim"
)

// familyTotals sums each counter family of rec's registry over its labels.
func familyTotals(rec *obs.Recorder) map[string]float64 {
	out := map[string]float64{}
	for key, v := range rec.Registry().Snapshot() {
		family, _, _ := strings.Cut(key, "{")
		out[family] += v
	}
	return out
}

// TestServerCountersReadStats drives a server through an eviction, a batch
// retry and deadline misses, and checks every view-backed counter against
// the Stats tally it reads.
func TestServerCountersReadStats(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		submit func(env *sim.Env, srv *Server)
		want   func(Stats) int // the tally the case must exercise
	}{
		{
			name: "eviction",
			cfg:  Config{MaxBatch: 4, BatchTimeout: time.Hour, MaxQueue: 1},
			submit: func(env *sim.Env, srv *Server) {
				env.Go("clients", func(p *sim.Proc) {
					srv.SubmitClass(model.Inception, overload.Batch)
					srv.SubmitClass(model.Inception, overload.Interactive)
				})
			},
			want: func(st Stats) int { return st.Degraded.Evictions },
		},
		{
			name: "deadline-miss",
			cfg:  Config{MaxBatch: 4, BatchTimeout: 100 * time.Microsecond, Deadline: time.Millisecond},
			submit: func(env *sim.Env, srv *Server) {
				submitN(t, env, srv, model.ResNet152, 4, 0)
			},
			want: func(st Stats) int { return st.Degraded.DeadlineMisses },
		},
		{
			name: "batch-retry",
			cfg: Config{MaxBatch: 4, BatchTimeout: time.Millisecond, MaxRetries: 1, RetryBackoff: 100 * time.Microsecond,
				Faults: faults.New(3, faults.Plan{KernelFailRate: 1})},
			submit: func(env *sim.Env, srv *Server) {
				submitN(t, env, srv, model.Inception, 2, 0)
			},
			want: func(st Stats) int { return st.Degraded.BatchRetries },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv(1)
			rec := obs.NewRecorder()
			tc.cfg.Obs = rec
			srv := newTestServer(t, env, tc.cfg)
			tc.submit(env, srv)
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			env.Shutdown()
			st := srv.Stats()
			if tc.want(st) == 0 {
				t.Fatalf("case exercised nothing: %+v", st.Degraded)
			}
			completed := 0
			for _, c := range st.Degraded.ByClass {
				completed += c.Completed
			}
			got := familyTotals(rec)
			for family, want := range map[string]int{
				"olympian_serving_completed_total":       completed,
				"olympian_serving_batches_total":         st.Batches,
				"olympian_serving_batch_retries_total":   st.Degraded.BatchRetries,
				"olympian_serving_evictions_total":       st.Degraded.Evictions,
				"olympian_serving_deadline_misses_total": st.Degraded.DeadlineMisses,
				"olympian_executor_kernel_retries_total": st.Degraded.KernelRetries,
				"olympian_gpu_kernels_total":             srv.Device().Stats().KernelsRun,
				"olympian_gpu_kernel_faults_total":       srv.Device().Stats().KernelFaults,
			} {
				if got[family] != float64(want) {
					t.Errorf("%s = %v, Stats tally = %d", family, got[family], want)
				}
			}
		})
	}
}

// TestLLMCountersReadStats does the same for an LLM replica pushed through
// TTFT expiry, TPOT misses and the admission gate.
func TestLLMCountersReadStats(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  LLMConfig
		want func(LLMStats) int
	}{
		{"ttft-expiry", LLMConfig{TTFTDeadline: time.Microsecond}, func(st LLMStats) int { return st.Expired }},
		{"tpot-miss", LLMConfig{TPOTBudget: time.Nanosecond}, func(st LLMStats) int { return st.TPOTMisses }},
		{"admission-shed", LLMConfig{Admission: &overload.AIMDConfig{Initial: 300, Min: 64, Max: 1024}},
			func(st LLMStats) int { return st.AdmissionSheds }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv(1)
			rec := obs.NewRecorder()
			tc.cfg.Model = model.LLMTiny
			tc.cfg.Obs = rec
			srv := newLLMTestServer(t, env, tc.cfg)
			env.Schedule(0, func() {
				for i := 0; i < 3; i++ {
					srv.Submit(model.LLMTiny, overload.Class(i%2), 256, 8, 0)
				}
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			env.Shutdown()
			st := srv.Stats()
			if tc.want(st) == 0 {
				t.Fatalf("case exercised nothing: %+v", st)
			}
			got := familyTotals(rec)
			for family, want := range map[string]int{
				"olympian_llm_requests_total":         st.Requests,
				"olympian_llm_completed_total":        st.Completed,
				"olympian_llm_failed_total":           st.Failed,
				"olympian_llm_tokens_total":           st.TokensEmitted,
				"olympian_llm_preemptions_total":      st.Preemptions,
				"olympian_llm_handoffs_total":         st.HandedOff,
				"olympian_llm_ingests_total":          st.Ingested,
				"olympian_llm_partials_total":         st.Partial,
				"olympian_llm_degraded_events_total":  st.DegradedEvents,
				"olympian_llm_admission_shed_total":   st.AdmissionSheds,
				"olympian_llm_ttft_expired_total":     st.Expired,
				"olympian_llm_truncated_tokens_total": st.TruncatedTokens,
				"olympian_llm_slo_attained_total":     st.SLOAttained,
				"olympian_llm_tpot_miss_total":        st.TPOTMisses,
			} {
				if got[family] != float64(want) {
					t.Errorf("%s = %v, Stats tally = %d", family, got[family], want)
				}
			}
		})
	}
}

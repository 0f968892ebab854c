package serving

import (
	"errors"
	"testing"
	"time"

	"olympian/internal/llm"
	"olympian/internal/model"
	"olympian/internal/overload"
	"olympian/internal/sim"
)

func TestLLMConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  LLMConfig
	}{
		{"negative-max-seqs", LLMConfig{MaxSeqs: -1}},
		{"negative-max-batch-tokens", LLMConfig{MaxBatchTokens: -8}},
		{"negative-max-queue", LLMConfig{MaxQueue: -1}},
		{"negative-block-tokens", LLMConfig{BlockTokens: -16}},
		{"negative-step-time", LLMConfig{MaxStepTime: -time.Millisecond}},
		{"negative-ttft-deadline", LLMConfig{TTFTDeadline: -time.Second}},
		{"negative-tpot-budget", LLMConfig{TPOTBudget: -time.Millisecond}},
		{"negative-expected-output", LLMConfig{ExpectedOutput: -4}},
		{"watermark-above-one", LLMConfig{KVWatermark: 1.5}},
		{"watermark-negative", LLMConfig{KVWatermark: -0.1}},
		{"negative-degraded-tail", LLMConfig{DegradedTail: -2}},
		{"bad-admission", LLMConfig{Admission: &overload.AIMDConfig{Beta: 2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err == nil {
				t.Fatalf("config %+v validated, want error", tc.cfg)
			}
			env := sim.NewEnv(1)
			defer env.Shutdown()
			if _, err := NewLLMServer(env, tc.cfg); err == nil {
				t.Fatal("NewLLMServer accepted an invalid config")
			}
		})
	}
	// Zero values mean default/disable throughout, so the zero config is valid.
	if err := (LLMConfig{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if err := (LLMConfig{
		MaxSeqs: 8, MaxQueue: 32, TTFTDeadline: 50 * time.Millisecond,
		TPOTBudget: 5 * time.Millisecond, KVWatermark: 0.9, DegradedTail: 8,
		Admission: &overload.AIMDConfig{Initial: 2048},
	}).Validate(); err != nil {
		t.Fatalf("sane config rejected: %v", err)
	}
}

func TestLLMTTFTExpiryShedsQueuedPrefills(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newLLMTestServer(t, env, LLMConfig{
		Model:        model.LLMTiny,
		TTFTDeadline: time.Microsecond,
	})
	var reqs []*llm.Request
	env.Schedule(0, func() {
		// All three arrive at one instant; prefill passes serialize, so only
		// the first can make a 1µs TTFT. The rest must expire un-run.
		for i := 0; i < 3; i++ {
			r, err := srv.Submit(model.LLMTiny, overload.Batch, 256, 4, 0)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			reqs = append(reqs, r)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	st := srv.Stats()
	if st.Completed != 1 || st.Expired != 2 {
		t.Fatalf("completed=%d expired=%d, want 1/2: %+v", st.Completed, st.Expired, st)
	}
	if st.ByClass[overload.Batch].Expired != 2 {
		t.Fatalf("per-class expired %d, want 2", st.ByClass[overload.Batch].Expired)
	}
	checkLLMConservation(t, srv)
	for _, r := range reqs[1:] {
		if !errors.Is(r.Err, ErrExpired) {
			t.Fatalf("request %d err %v, want ErrExpired", r.ID, r.Err)
		}
		if r.TokensOut != 0 || r.PrefillStartAt != 0 {
			t.Fatalf("expired request %d ran: tokens=%d prefillStart=%v", r.ID, r.TokensOut, r.PrefillStartAt)
		}
	}
	// A completion that blew its TTFT deadline forfeits SLO attainment.
	if st.SLOAttained != 0 {
		t.Fatalf("slo attained %d with a 1µs deadline, want 0", st.SLOAttained)
	}
}

func TestLLMTTFTExpiryExemptsCarriedRequests(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newLLMTestServer(t, env, LLMConfig{
		Model:        model.LLMTiny,
		TTFTDeadline: time.Microsecond,
	})
	var carried *llm.Request
	env.Schedule(0, func() {
		// A fresh request to occupy the engine, then a failover recompute with
		// tokens already delivered: its first token exists, so it never
		// expires however long it queues.
		if _, err := srv.Submit(model.LLMTiny, overload.Batch, 256, 4, 0); err != nil {
			t.Errorf("submit: %v", err)
			return
		}
		r, err := srv.Submit(model.LLMTiny, overload.Batch, 64, 8, 5)
		if err != nil {
			t.Errorf("submit carried: %v", err)
			return
		}
		carried = r
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if carried == nil || carried.Err != nil || carried.TokensOut != carried.OutputTokens {
		t.Fatalf("carried request did not complete: %+v", carried)
	}
	checkLLMConservation(t, srv)
}

func TestLLMDegradedModeTruncatesBatchOnly(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newLLMTestServer(t, env, LLMConfig{
		Model:        model.LLMTiny,
		Spec:         tinySpec(t, 512<<10), // 256 tokens of KV at 2KiB/token
		KVWatermark:  0.5,
		DegradedTail: 2,
	})
	var batchReqs []*llm.Request
	var inter *llm.Request
	env.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			r, err := srv.Submit(model.LLMTiny, overload.Batch, 32, 64, 0)
			if err != nil {
				t.Errorf("submit batch %d: %v", i, err)
				return
			}
			batchReqs = append(batchReqs, r)
		}
		r, err := srv.Submit(model.LLMTiny, overload.Interactive, 32, 24, 0)
		if err != nil {
			t.Errorf("submit interactive: %v", err)
			return
		}
		inter = r
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	st := srv.Stats()
	if st.DegradedEvents == 0 || st.Truncated == 0 || st.TruncatedTokens == 0 {
		t.Fatalf("degraded mode never engaged: %+v", st)
	}
	checkLLMConservation(t, srv)
	cut := 0
	for _, r := range batchReqs {
		if r.Err != nil {
			t.Fatalf("batch request %d failed: %v", r.ID, r.Err)
		}
		// Truncation conservation: the delivered tokens plus the explicit cut
		// reconstruct the original 64-token budget.
		if r.TokensOut+r.Truncated != 64 {
			t.Fatalf("request %d: %d delivered + %d truncated != 64", r.ID, r.TokensOut, r.Truncated)
		}
		cut += r.Truncated
	}
	if cut != st.TruncatedTokens {
		t.Fatalf("requests carry %d cut tokens, stats say %d", cut, st.TruncatedTokens)
	}
	if inter.Truncated != 0 || inter.TokensOut != 24 {
		t.Fatalf("interactive request degraded: %d delivered, %d truncated", inter.TokensOut, inter.Truncated)
	}
}

func TestLLMAdmissionGateShedsAndReleases(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newLLMTestServer(t, env, LLMConfig{
		Model: model.LLMTiny,
		Admission: &overload.AIMDConfig{
			Initial: 64, Min: 64, Max: 64, Add: 1, Beta: 0.5,
		},
	})
	var second *llm.Request
	env.Schedule(0, func() {
		// First request admits on the idle gate and holds 48 of 64 tokens;
		// the second's 48 no longer fit and shed without cutting the limit.
		if _, err := srv.Submit(model.LLMTiny, overload.Batch, 32, 16, 0); err != nil {
			t.Errorf("first submit: %v", err)
			return
		}
		if _, err := srv.Submit(model.LLMTiny, overload.Batch, 32, 16, 0); !errors.Is(err, ErrShed) {
			t.Errorf("second submit err %v, want ErrShed", err)
		}
	})
	env.Schedule(20*time.Millisecond, func() {
		// After the first completes its cost is released; capacity is back.
		r, err := srv.Submit(model.LLMTiny, overload.Batch, 32, 16, 0)
		if err != nil {
			t.Errorf("post-release submit: %v", err)
			return
		}
		second = r
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	st := srv.Stats()
	if st.AdmissionSheds != 1 || st.Shed != 1 {
		t.Fatalf("admission sheds %d / shed %d, want 1/1", st.AdmissionSheds, st.Shed)
	}
	if st.Completed != 2 || second == nil || second.Err != nil {
		t.Fatalf("post-release request did not complete: %+v", st)
	}
	if st.AdmitLimit != 64 {
		t.Fatalf("admit limit %v moved on a self-shed, want 64", st.AdmitLimit)
	}
	checkLLMConservation(t, srv)
}

func TestLLMTPOTBudgetCountsMisses(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newLLMTestServer(t, env, LLMConfig{
		Model:      model.LLMTiny,
		TPOTBudget: time.Nanosecond, // every real decode step misses
	})
	env.Schedule(0, func() {
		if _, err := srv.Submit(model.LLMTiny, overload.Interactive, 32, 8, 0); err != nil {
			t.Errorf("submit: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	st := srv.Stats()
	if st.Completed != 1 || st.TPOTMisses != 1 || st.SLOAttained != 0 {
		t.Fatalf("completed=%d tpotMisses=%d sloAttained=%d, want 1/1/0",
			st.Completed, st.TPOTMisses, st.SLOAttained)
	}
	if st.ByClass[overload.Interactive].DeadlineMisses != 1 {
		t.Fatalf("per-class deadline misses %d, want 1", st.ByClass[overload.Interactive].DeadlineMisses)
	}
	checkLLMConservation(t, srv)
}

func TestLLMSLOAttainedUnderGenerousBudgets(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newLLMTestServer(t, env, LLMConfig{
		Model:        model.LLMTiny,
		TTFTDeadline: time.Hour,
		TPOTBudget:   time.Hour,
	})
	env.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			if _, err := srv.Submit(model.LLMTiny, overload.Batch, 32, 8, 0); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	st := srv.Stats()
	if st.Completed != 3 || st.SLOAttained != 3 || st.TPOTMisses != 0 {
		t.Fatalf("completed=%d sloAttained=%d tpotMisses=%d, want 3/3/0",
			st.Completed, st.SLOAttained, st.TPOTMisses)
	}
	checkLLMConservation(t, srv)
}

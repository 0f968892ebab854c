package serving

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"olympian/internal/faults"
	"olympian/internal/gpu"
	"olympian/internal/llm"
	"olympian/internal/model"
	"olympian/internal/sim"
)

// tinySpec is a deterministic platform for LLM tests: no stream bias, and an
// optional KV budget (slack bytes beyond the resident weights).
func tinySpec(t *testing.T, kvSlack int64) gpu.Spec {
	t.Helper()
	weights, err := model.LLMWeightsBytes(model.LLMTiny)
	if err != nil {
		t.Fatal(err)
	}
	spec := gpu.GTX1080Ti
	spec.StreamBias = 0
	if kvSlack > 0 {
		spec.MemoryBytes = weights + kvSlack
	}
	return spec
}

func newLLMTestServer(t *testing.T, env *sim.Env, cfg LLMConfig) *LLMServer {
	t.Helper()
	if cfg.Spec.Name == "" {
		cfg.Spec = tinySpec(t, 0)
	}
	srv, err := NewLLMServer(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func checkLLMConservation(t *testing.T, srv *LLMServer) {
	t.Helper()
	st := srv.Stats()
	if st.Requests != st.Completed+st.HandedOff+st.Failed+st.Shed+st.Expired {
		t.Fatalf("request conservation broken: %+v", st)
	}
	if st.TokensEmitted != st.EmittedByRequests {
		t.Fatalf("token conservation broken: emitted %d, by requests %d",
			st.TokensEmitted, st.EmittedByRequests)
	}
	if st.KV.BlocksInUse != 0 || st.KV.Seqs != 0 {
		t.Fatalf("kv cache not quiescent: %+v", st.KV)
	}
}

// TestLLMColocatedEndToEnd serves a short staggered train on one colocated
// replica, in retained and in Slim mode: every request completes with all
// its tokens either way.
func TestLLMColocatedEndToEnd(t *testing.T) {
	for _, slim := range []bool{false, true} {
		t.Run(fmt.Sprintf("slim=%v", slim), func(t *testing.T) {
			env := sim.NewEnv(1)
			srv := newLLMTestServer(t, env, LLMConfig{Model: model.LLMTiny, Slim: slim})
			var reqs []*llm.Request
			for i, out := range []int{1, 4, 16, 40} {
				out := out
				env.Schedule(time.Duration(i)*10*time.Microsecond, func() {
					r, err := srv.Submit(model.LLMTiny, 0, 32, out, 0)
					if err != nil {
						t.Errorf("submit: %v", err)
						return
					}
					reqs = append(reqs, r)
				})
			}
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			env.Shutdown()
			st := srv.Stats()
			if st.Completed != 4 || st.Failed != 0 || st.Shed != 0 {
				t.Fatalf("stats %+v, want 4 completed", st)
			}
			want := 1 + 4 + 16 + 40
			if st.TokensEmitted != want {
				t.Fatalf("tokens emitted %d, want %d", st.TokensEmitted, want)
			}
			checkLLMConservation(t, srv)
			for _, r := range reqs {
				if !r.Finished() || r.Err != nil {
					t.Fatalf("request %d not completed: err=%v", r.ID, r.Err)
				}
				if r.TTFT() <= 0 {
					t.Fatalf("request %d has no TTFT", r.ID)
				}
				if r.TokensOut != r.OutputTokens {
					t.Fatalf("request %d delivered %d/%d tokens", r.ID, r.TokensOut, r.OutputTokens)
				}
				if r.OutputTokens >= 2 && r.TPOT() <= 0 {
					t.Fatalf("request %d has no TPOT", r.ID)
				}
				if r.Latency() <= 0 {
					t.Fatalf("request %d has no latency", r.ID)
				}
			}
			if st.TTFT.P50 <= 0 || st.TPOT.P50 <= 0 {
				t.Fatalf("percentiles not populated: %+v", st)
			}
		})
	}
}

func TestLLMContinuousBatchingJoinsMidGeneration(t *testing.T) {
	// A request arriving while another is mid-decode must join at the next
	// token boundary — its first token lands before the first request
	// finishes — and batching must beat serial execution on makespan.
	makespan := func(maxSeqs int) sim.Time {
		env := sim.NewEnv(1)
		srv, err := NewLLMServer(env, LLMConfig{Model: model.LLMTiny, Spec: tinySpec(t, 0), MaxSeqs: maxSeqs})
		if err != nil {
			t.Fatal(err)
		}
		var a, b *llm.Request
		env.Schedule(0, func() {
			a, _ = srv.Submit(model.LLMTiny, 0, 16, 400, 0)
		})
		env.Schedule(2*time.Millisecond, func() {
			b, _ = srv.Submit(model.LLMTiny, 0, 16, 400, 0)
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		env.Shutdown()
		if a == nil || b == nil || a.Err != nil || b.Err != nil {
			t.Fatalf("maxSeqs=%d: requests did not complete (a=%+v b=%+v)", maxSeqs, a, b)
		}
		if maxSeqs > 1 && b.FirstTokenAt >= a.FinishAt {
			t.Fatalf("b never joined a's batch: b first token %v, a finish %v", b.FirstTokenAt, a.FinishAt)
		}
		checkLLMConservation(t, srv)
		if a.FinishAt > b.FinishAt {
			return a.FinishAt
		}
		return b.FinishAt
	}
	serial := makespan(1)
	batched := makespan(8)
	if batched >= serial {
		t.Fatalf("continuous batching did not amortize: batched %v, serial %v", batched, serial)
	}
}

func TestLLMKVPressurePreemptsAndRecovers(t *testing.T) {
	// Two sequences whose caches cannot both fit force a preemption; the
	// victim recomputes once memory frees and both still complete.
	env := sim.NewEnv(1)
	srv := newLLMTestServer(t, env, LLMConfig{
		Model: model.LLMTiny,
		Spec:  tinySpec(t, 128<<10), // 4 blocks of 16 tokens at 2KiB/token
	})
	var a, b *llm.Request
	env.Schedule(0, func() {
		a, _ = srv.Submit(model.LLMTiny, 0, 12, 24, 0)
		b, _ = srv.Submit(model.LLMTiny, 0, 12, 24, 0)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	st := srv.Stats()
	if st.Completed != 2 {
		t.Fatalf("stats %+v, want both completed", st)
	}
	if st.Preemptions == 0 {
		t.Fatalf("no preemption under kv pressure: %+v", st)
	}
	if a.TokensOut != a.OutputTokens || b.TokensOut != b.OutputTokens {
		t.Fatalf("tokens: a %d/%d, b %d/%d", a.TokensOut, a.OutputTokens, b.TokensOut, b.OutputTokens)
	}
	if st.KV.AllocFailures == 0 {
		t.Fatalf("expected alloc failures to be recorded: %+v", st.KV)
	}
	checkLLMConservation(t, srv)
}

func TestLLMKVExhaustionFailsLoneSequence(t *testing.T) {
	// A sequence whose prompt alone exceeds the cache must fail with
	// ErrKVExhausted — not self-preempt forever.
	env := sim.NewEnv(1)
	srv := newLLMTestServer(t, env, LLMConfig{
		Model: model.LLMTiny,
		Spec:  tinySpec(t, 128<<10), // 64 tokens of cache
	})
	var r *llm.Request
	env.Schedule(0, func() {
		r, _ = srv.Submit(model.LLMTiny, 0, 200, 10, 0)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if r == nil || !r.Finished() || !errors.Is(r.Err, ErrKVExhausted) {
		t.Fatalf("want ErrKVExhausted, got %+v", r)
	}
	st := srv.Stats()
	if st.Failed != 1 || st.Partial != 0 {
		t.Fatalf("stats %+v, want 1 plain failure", st)
	}
	checkLLMConservation(t, srv)
}

func TestLLMCrashMidDecodeReportsPartialTokens(t *testing.T) {
	// A crash mid-generation fails the request with ErrDrained but keeps the
	// delivered tokens visible as partial work — satellite 4's accounting fix.
	env := sim.NewEnv(1)
	inj := faults.New(3, faults.Plan{Crashes: []faults.CrashEvent{{At: 2 * time.Millisecond}}})
	srv := newLLMTestServer(t, env, LLMConfig{Model: model.LLMTiny, Faults: inj})
	srv.Device().SetCrashObserver(func(time.Duration) { srv.OnCrash() })
	var r *llm.Request
	env.Schedule(0, func() {
		r, _ = srv.Submit(model.LLMTiny, 0, 16, 4000, 0)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if r == nil || !r.Finished() || !errors.Is(r.Err, ErrDrained) {
		t.Fatalf("want ErrDrained, got %+v", r)
	}
	if !r.Partial() || r.TokensOut == 0 || r.TokensOut >= r.OutputTokens {
		t.Fatalf("want a partial result, got %d/%d tokens", r.TokensOut, r.OutputTokens)
	}
	st := srv.Stats()
	if st.Partial != 1 || st.PartialTokens != r.TokensOut {
		t.Fatalf("partial accounting %+v, want 1 partial with %d tokens", st, r.TokensOut)
	}
	checkLLMConservation(t, srv)
}

func TestLLMBoundedQueueSheds(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newLLMTestServer(t, env, LLMConfig{Model: model.LLMTiny, MaxQueue: 1})
	var errs []error
	env.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			_, err := srv.Submit(model.LLMTiny, 0, 8, 4, 0)
			errs = append(errs, err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	shed := 0
	for _, err := range errs {
		if errors.Is(err, ErrQueueFull) {
			shed++
		}
	}
	if shed == 0 {
		t.Fatalf("no submissions shed: %v", errs)
	}
	st := srv.Stats()
	if st.Shed != shed || st.Requests != 3 {
		t.Fatalf("stats %+v, want %d shed of 3", st, shed)
	}
	checkLLMConservation(t, srv)
}

func TestLLMPrefillRoleHandsOff(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newLLMTestServer(t, env, LLMConfig{Model: model.LLMTiny, Role: llm.PrefillRole})
	var r *llm.Request
	env.Schedule(0, func() {
		r, _ = srv.Submit(model.LLMTiny, 0, 64, 32, 0)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if r == nil || !r.Finished() || r.Err != nil || !r.HandedOff {
		t.Fatalf("want a handed-off request, got %+v", r)
	}
	if r.TokensOut != 1 || r.FirstTokenAt == 0 {
		t.Fatalf("prefill must emit exactly the first token: %+v", r)
	}
	st := srv.Stats()
	if st.HandedOff != 1 || st.Completed != 0 || st.TokensEmitted != 1 {
		t.Fatalf("stats %+v, want 1 handoff emitting 1 token", st)
	}
	checkLLMConservation(t, srv)
}

func TestLLMDecodeRoleIngests(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newLLMTestServer(t, env, LLMConfig{Model: model.LLMTiny, Role: llm.DecodeRole})
	var r *llm.Request
	env.Schedule(time.Millisecond, func() {
		var err error
		r, err = srv.Ingest(0, 64, 32, 1, 0, sim.Time(500*time.Microsecond), sim.Time(500*time.Microsecond))
		if err != nil {
			t.Errorf("ingest: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if r == nil || !r.Finished() || r.Err != nil {
		t.Fatalf("ingested request did not complete: %+v", r)
	}
	if r.TokensOut != 32 {
		t.Fatalf("tokens out %d, want 32", r.TokensOut)
	}
	st := srv.Stats()
	// 31 decode tokens emitted here; token 1 was the prefill replica's.
	if st.Ingested != 1 || st.TokensEmitted != 31 {
		t.Fatalf("stats %+v, want 1 ingest emitting 31 tokens", st)
	}
	if r.TTFT() != 500*time.Microsecond {
		t.Fatalf("carried TTFT %v, want 500µs", r.TTFT())
	}
	checkLLMConservation(t, srv)
}

func TestLLMRecomputeDoesNotReEmit(t *testing.T) {
	// A failover re-dispatch with have=N recomputes KV for the delivered
	// tokens but emits only the remaining ones.
	env := sim.NewEnv(1)
	srv := newLLMTestServer(t, env, LLMConfig{Model: model.LLMTiny})
	var r *llm.Request
	env.Schedule(0, func() {
		r, _ = srv.Submit(model.LLMTiny, 0, 16, 20, 5)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if r == nil || r.Err != nil || r.TokensOut != 20 {
		t.Fatalf("recompute request: %+v", r)
	}
	st := srv.Stats()
	if st.TokensEmitted != 15 || r.EmittedHere() != 15 {
		t.Fatalf("emitted %d (request says %d), want 15", st.TokensEmitted, r.EmittedHere())
	}
	checkLLMConservation(t, srv)
}

func TestLLMStepTimeBudgetLimitsBatch(t *testing.T) {
	// With a tight profiler-predicted step budget the engine stops admitting
	// ready sequences even though slots remain.
	env := sim.NewEnv(1)
	srv := newLLMTestServer(t, env, LLMConfig{
		Model:       model.LLMTiny,
		MaxSeqs:     16,
		MaxStepTime: 30 * time.Microsecond, // ~ base + one small sequence
	})
	env.Schedule(0, func() {
		for i := 0; i < 6; i++ {
			srv.Submit(model.LLMTiny, 0, 64, 50, 0)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	st := srv.Stats()
	if st.Completed != 6 {
		t.Fatalf("stats %+v, want 6 completed", st)
	}
	checkLLMConservation(t, srv)
}

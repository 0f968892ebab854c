package serving

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"olympian/internal/faults"
	"olympian/internal/llm"
	"olympian/internal/model"
	"olympian/internal/obs"
	"olympian/internal/overload"
	"olympian/internal/sim"
)

// TestLLMEngineOutcomesPinned pins what one LLMServer does on every path of
// its engine: transient kernel faults and their relaunch, KV preemption and
// recompute, and two crash-and-revive windows, the first landing while a
// prefill kernel is in flight and the second during a decode step. It runs
// one replica per role (a decode replica's prefills are the recomputes of
// preempted sequences) and hashes (fnv-64a) each request's settle instant,
// FirstTokenAt, TokensOut and Err, or its Submit/Ingest error, plus Stats().
// The hashes were recorded on the engine's proc-driven form; a change to
// the engine's event order or accounting moves them.
func TestLLMEngineOutcomesPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		role llm.Role
		want uint64
	}{
		{"colocated", llm.Colocated, 0x6832571159342721},
		{"decode", llm.DecodeRole, 0x5d05bbb438e711b},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, st, placed := llmEngineOutcomes(t, tc.role)
			if st.KernelRetries == 0 || st.Preemptions == 0 || st.Partial == 0 {
				t.Errorf("scenario misses a path: retries %d, preemptions %d, partials %d",
					st.KernelRetries, st.Preemptions, st.Partial)
			}
			if want := []string{"prefill", "decode"}; fmt.Sprint(placed) != fmt.Sprint(want) {
				t.Errorf("crashes landed during %v, want %v", placed, want)
			}
			if got != tc.want {
				t.Errorf("outcome hash %#x, want %#x", got, tc.want)
			}
		})
	}
}

// llmEngineOutcomes runs the pinned scenario for one role and returns its
// outcome hash, the replica's stats, and which kernel kind each crash
// failed. 48 requests arrive 120µs apart, faster than the replica serves
// them, so KV pressure preempts and each crash drains a full batch.
func llmEngineOutcomes(t *testing.T, role llm.Role) (uint64, LLMStats, []string) {
	t.Helper()
	env := sim.NewEnv(1)
	rec := obs.NewRecorder()
	rec.Bind(env, "llm-engine-pin")
	srv := newLLMTestServer(t, env, LLMConfig{
		Model:   model.LLMTiny,
		Spec:    tinySpec(t, 640<<10),
		Role:    role,
		MaxSeqs: 4,
		Faults: faults.New(5, faults.Plan{KernelFailRate: 0.05, Crashes: []faults.CrashEvent{
			{At: 1200 * time.Microsecond, Recovery: 200 * time.Microsecond},
			{At: 3000 * time.Microsecond, Recovery: 200 * time.Microsecond},
		}}),
		Obs: rec,
	})
	dev := srv.Device()
	var placed []string
	dev.SetCrashObserver(func(recovery time.Duration) {
		// The crash ended the spans of the kernels it failed at this
		// instant; a prefill kernel is owned by its request, a decode step
		// by no request.
		for _, s := range rec.Spans() {
			if s.Layer == obs.LayerGPU && s.End == env.Now() && s.End >= s.Start {
				kind := "decode"
				if s.Req >= 0 {
					kind = "prefill"
				}
				placed = append(placed, kind)
			}
		}
		srv.OnCrash()
		env.Schedule(recovery, func() { dev.Revive(50 * time.Microsecond) })
	})
	const n = 48
	reqs := make([]llm.Request, n)
	errs := make([]error, n)
	for i := range reqs {
		env.Schedule(time.Duration(i)*120*time.Microsecond, func() {
			prompt, output := 16+(i*37)%96, 8+(i*53)%120
			class := overload.Class(i % 2)
			if role == llm.DecodeRole {
				now := env.Now()
				errs[i] = srv.Ingest(&reqs[i], class, prompt, output, 1, now, now, now)
				return
			}
			errs[i] = srv.Submit(&reqs[i], model.LLMTiny, class, prompt, output, 0)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	checkLLMConservation(t, srv)
	h := fnv.New64a()
	for i := range reqs {
		r := &reqs[i]
		if errs[i] != nil {
			fmt.Fprintf(h, "%d rejected %v\n", i, errs[i])
			continue
		}
		if !r.Finished() {
			t.Fatalf("request %d never settled", i)
		}
		fmt.Fprintf(h, "%d %d %d %d %v\n", i, r.FinishAt, r.FirstTokenAt, r.TokensOut, r.Err)
	}
	st := srv.Stats()
	fmt.Fprintf(h, "%+v\n", st)
	return h.Sum64(), st, placed
}

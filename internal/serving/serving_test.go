package serving

import (
	"math/rand"
	"testing"
	"time"

	"olympian/internal/model"
	"olympian/internal/overload"
	"olympian/internal/sim"
)

// newTestServer builds a server, failing the test on config errors.
func newTestServer(t *testing.T, env *sim.Env, cfg Config, rng *rand.Rand) *Server {
	t.Helper()
	srv, err := NewServer(env, cfg, rng)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return srv
}

// submitN fires n requests for modelName with the given interarrival gap
// and waits for them all. It returns the requests, filled in as each one is
// submitted while the environment runs.
func submitN(t *testing.T, env *sim.Env, srv *Server, modelName string, n int, gap time.Duration) []*Request {
	t.Helper()
	reqs := make([]*Request, n)
	for i := 0; i < n; i++ {
		i := i
		env.Go("frontend", func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * gap)
			req, err := srv.SubmitClass(modelName, overload.Interactive)
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			reqs[i] = req
			req.Done().Wait(p)
		})
	}
	return reqs
}

func TestBatcherFlushesOnFullBatch(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{MaxBatch: 8, BatchTimeout: time.Hour}, env.Rand())
	reqs := submitN(t, env, srv, model.Inception, 16, 0) // all arrive at t=0
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	st := srv.Stats()
	if st.Requests != 16 || st.Batches != 2 {
		t.Fatalf("stats %+v, want 16 requests in 2 batches", st)
	}
	for _, r := range reqs {
		if r.BatchSize != 8 {
			t.Fatalf("request %d rode batch of %d, want 8", r.ID, r.BatchSize)
		}
		if r.FinishAt == 0 {
			t.Fatalf("request %d never finished", r.ID)
		}
	}
}

func TestBatcherFlushesOnTimeout(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{MaxBatch: 64, BatchTimeout: 5 * time.Millisecond}, env.Rand())
	reqs := submitN(t, env, srv, model.Inception, 3, 0)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	st := srv.Stats()
	if st.Batches != 1 {
		t.Fatalf("%d batches, want 1 (timeout flush)", st.Batches)
	}
	for _, r := range reqs {
		if queueDelay(r) < 5*time.Millisecond-time.Microsecond {
			t.Fatalf("request %d flushed after %v, want the 5ms timeout", r.ID, queueDelay(r))
		}
		if r.BatchSize != 3 {
			t.Fatalf("batch size %d, want 3", r.BatchSize)
		}
	}
}

func TestLatencyAccounting(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{MaxBatch: 4, BatchTimeout: time.Millisecond}, env.Rand())
	reqs := submitN(t, env, srv, model.ResNet152, 4, 0)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	for _, r := range reqs {
		if r.Latency() <= 0 {
			t.Fatalf("request %d latency %v", r.ID, r.Latency())
		}
		if r.Latency() < queueDelay(r) {
			t.Fatalf("latency %v < queue delay %v", r.Latency(), queueDelay(r))
		}
	}
	st := srv.Stats()
	if st.P50 <= 0 || st.P99 < st.P50 {
		t.Fatalf("latency quantiles %+v", st)
	}
}

func TestMultiModelServing(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{MaxBatch: 4, BatchTimeout: 2 * time.Millisecond, UseOlympian: true}, env.Rand())
	submitN(t, env, srv, model.Inception, 4, time.Millisecond)
	submitN(t, env, srv, model.ResNet152, 4, time.Millisecond)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	st := srv.Stats()
	if st.Requests != 8 {
		t.Fatalf("requests %d", st.Requests)
	}
	if st.Batches < 2 {
		t.Fatalf("batches %d, want at least one per model", st.Batches)
	}
	if st.Utilization <= 0 {
		t.Fatal("no GPU activity recorded")
	}
}

func TestSubmitUnknownModel(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{}, env.Rand())
	var submitErr error
	env.Go("frontend", func(p *sim.Proc) {
		_, submitErr = srv.SubmitClass("bogus", overload.Interactive)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if submitErr == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestBiggerBatchesImproveThroughput(t *testing.T) {
	// Classic serving trade-off: larger max batches raise throughput
	// (smaller per-image cost) at some queueing latency.
	run := func(maxBatch int) (time.Duration, Stats) {
		env := sim.NewEnv(1)
		srv := newTestServer(t, env, Config{MaxBatch: maxBatch, BatchTimeout: 2 * time.Millisecond}, env.Rand())
		submitN(t, env, srv, model.Inception, 32, 0)
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		env.Shutdown()
		return time.Duration(env.Now()), srv.Stats()
	}
	smallDone, smallStats := run(1)
	bigDone, bigStats := run(32)
	if bigStats.Batches >= smallStats.Batches {
		t.Fatalf("batch counts %d vs %d", bigStats.Batches, smallStats.Batches)
	}
	if bigDone >= smallDone {
		t.Fatalf("batched serving (%v) should beat per-request serving (%v)", bigDone, smallDone)
	}
}

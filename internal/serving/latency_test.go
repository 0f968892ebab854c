package serving

import (
	"testing"
	"time"

	"olympian/internal/model"
	"olympian/internal/sim"
)

func TestLatencyZeroWhileInFlight(t *testing.T) {
	// A request that has not finished has FinishAt == 0; Latency and
	// queueDelay must read 0, not a bogus negative duration.
	r := &Request{ArriveAt: sim.Time(5 * time.Millisecond)}
	if got := r.Latency(); got != 0 {
		t.Fatalf("in-flight Latency() = %v, want 0", got)
	}
	if got := queueDelay(r); got != 0 {
		t.Fatalf("un-batched queue delay = %v, want 0", got)
	}
}

func TestShedAndExpiredReportZeroDelays(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{
		MaxBatch: 4, BatchTimeout: time.Millisecond,
		MaxQueue: 2, Deadline: 500 * time.Microsecond,
	}, env.Rand())
	// A burst far beyond the bounded queue forces sheds; the tight deadline
	// expires whatever queues too long.
	reqs := submitN(t, env, srv, model.Inception, 24, 0)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	st := srv.Stats()
	if st.Failed == 0 {
		t.Fatal("no requests shed or expired; the test exercised nothing")
	}
	for _, r := range reqs {
		if r.Latency() < 0 {
			t.Fatalf("request %d Latency() = %v, negative", r.ID, r.Latency())
		}
		if queueDelay(r) < 0 {
			t.Fatalf("request %d queue delay = %v, negative", r.ID, queueDelay(r))
		}
		if r.Err != nil && r.BatchedAt == 0 && queueDelay(r) != 0 {
			t.Fatalf("failed request %d queue delay = %v, want 0", r.ID, queueDelay(r))
		}
	}
}

func TestStatsPerModelPercentiles(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{MaxBatch: 8, BatchTimeout: time.Millisecond}, env.Rand())
	submitN(t, env, srv, model.ResNet50, 8, 100*time.Microsecond)
	submitN(t, env, srv, model.Inception, 8, 100*time.Microsecond)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	st := srv.Stats()
	if len(st.PerModel) != 2 {
		t.Fatalf("PerModel has %d entries, want 2: %+v", len(st.PerModel), st.PerModel)
	}
	if st.PerModel[0].Model != model.Inception || st.PerModel[1].Model != model.ResNet50 {
		t.Fatalf("PerModel not sorted by model name: %+v", st.PerModel)
	}
	for _, pm := range st.PerModel {
		if pm.Latency.N != 8 {
			t.Fatalf("%s sampled %d latencies, want 8", pm.Model, pm.Latency.N)
		}
		if pm.Latency.P50 <= 0 || pm.Latency.P95 < pm.Latency.P50 || pm.Latency.P99 < pm.Latency.P95 {
			t.Fatalf("%s percentiles not monotone: %+v", pm.Model, pm.Latency)
		}
	}
}

func TestDrainQueuedFailsOnlyQueuedRequests(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{MaxBatch: 4, BatchTimeout: time.Hour}, env.Rand())
	// Three requests sit in the batcher (batch of 4 never fills, timeout
	// never fires); a later drain must fail exactly those three.
	reqs := submitN(t, env, srv, model.Inception, 3, 0)
	drained := -1
	env.Go("drainer", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond)
		drained = srv.DrainQueued()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if drained != 3 {
		t.Fatalf("drained %d requests, want 3", drained)
	}
	for _, r := range reqs {
		if r.Err != ErrDrained {
			t.Fatalf("request %d err = %v, want ErrDrained", r.ID, r.Err)
		}
		if r.FinishAt == 0 {
			t.Fatalf("drained request %d never reached a terminal state", r.ID)
		}
	}
}

// queueDelay is the time r spent waiting in the batcher, or 0 for a request
// shed, expired, or drained before the batcher dispatched it (BatchedAt is
// never stamped on those paths).
func queueDelay(r *Request) time.Duration {
	if r.BatchedAt == 0 || r.BatchedAt < r.ArriveAt {
		return 0
	}
	return time.Duration(r.BatchedAt - r.ArriveAt)
}

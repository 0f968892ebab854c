package serving

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"olympian/internal/faults"
	"olympian/internal/graph"
	"olympian/internal/model"
	"olympian/internal/overload"
	"olympian/internal/sim"
)

func TestBuildFailureFailsBatchNotServer(t *testing.T) {
	// A graph-build failure must complete the affected requests with an
	// error and leave the server serving other models, not panic.
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{MaxBatch: 4, BatchTimeout: time.Millisecond}, env.Rand())
	srv.build = func(modelName string, batch int) (*graph.Graph, error) {
		if modelName == model.ResNet152 {
			return nil, fmt.Errorf("zoo: no %s at batch %d", modelName, batch)
		}
		return model.Build(modelName, batch)
	}
	reqs := submitN(t, env, srv, model.ResNet152, 3, 0)
	reqs2 := submitN(t, env, srv, model.Inception, 3, 0)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	reqs = append(reqs, reqs2...)
	env.Shutdown()
	st := srv.Stats()
	if st.Failed != 3 || st.Completed != 3 {
		t.Fatalf("stats %+v, want 3 failed and 3 completed", st)
	}
	if st.Degraded.BatchFailures != 1 {
		t.Fatalf("batch failures %d, want 1", st.Degraded.BatchFailures)
	}
	for _, r := range reqs {
		if r.FinishAt == 0 {
			t.Fatalf("request %d never completed", r.ID)
		}
		if failed := r.Model == model.ResNet152; failed != (r.Err != nil) {
			t.Fatalf("request %d (%s) err = %v", r.ID, r.Model, r.Err)
		}
	}
}

func TestBoundedQueueShedsAtAdmission(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{MaxBatch: 32, BatchTimeout: 5 * time.Millisecond, MaxQueue: 4}, env.Rand())
	reqs := submitN(t, env, srv, model.Inception, 10, 10*time.Microsecond)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	st := srv.Stats()
	if st.Completed != 4 || st.Failed != 6 {
		t.Fatalf("stats %+v, want 4 completed and 6 shed", st)
	}
	if st.Degraded.Drops != 6 {
		t.Fatalf("drops %d, want 6", st.Degraded.Drops)
	}
	for _, r := range reqs {
		if r.Err == nil {
			continue
		}
		if !errors.Is(r.Err, ErrQueueFull) {
			t.Fatalf("shed request %d err = %v", r.ID, r.Err)
		}
		// Shedding is immediate: the client learns at arrival time, not
		// after a queueing delay.
		if r.FinishAt != r.ArriveAt {
			t.Fatalf("shed request %d completed at %v, arrived %v", r.ID, r.FinishAt, r.ArriveAt)
		}
	}
}

func TestDeadlineExpiryDropsQueuedRequests(t *testing.T) {
	// The batch timeout exceeds the deadline, so every request expires in
	// the queue and must be dropped, never dispatched.
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{MaxBatch: 64, BatchTimeout: 5 * time.Millisecond, Deadline: time.Millisecond}, env.Rand())
	reqs := submitN(t, env, srv, model.Inception, 3, 0)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	st := srv.Stats()
	if st.Batches != 0 {
		t.Fatalf("%d batches dispatched for all-expired queue", st.Batches)
	}
	if st.Degraded.Expired != 3 || st.Failed != 3 {
		t.Fatalf("stats %+v, want 3 expired", st)
	}
	for _, r := range reqs {
		if !errors.Is(r.Err, ErrExpired) {
			t.Fatalf("request %d err = %v, want ErrExpired", r.ID, r.Err)
		}
	}
}

func TestDeadlineMissCountsLateCompletions(t *testing.T) {
	// Requests dispatch promptly but the model takes longer than the SLO:
	// they complete, yet each counts as a deadline miss.
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{MaxBatch: 4, BatchTimeout: 100 * time.Microsecond, Deadline: time.Millisecond}, env.Rand())
	submitN(t, env, srv, model.ResNet152, 4, 0)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	st := srv.Stats()
	if st.Completed != 4 || st.Failed != 0 {
		t.Fatalf("stats %+v, want all completed", st)
	}
	if st.Degraded.DeadlineMisses != 4 {
		t.Fatalf("deadline misses %d, want 4", st.Degraded.DeadlineMisses)
	}
}

func TestBatchRetryExhaustionFailsRequests(t *testing.T) {
	// Every kernel fails, so executor retries exhaust and each batch
	// attempt aborts; the server retries batchRetries times, then fails the
	// requests instead of retrying forever.
	env := sim.NewEnv(1)
	inj := faults.New(3, faults.Plan{KernelFailRate: 1})
	srv := newTestServer(t, env, Config{MaxBatch: 4, BatchTimeout: time.Millisecond, Faults: inj}, env.Rand())
	reqs := submitN(t, env, srv, model.Inception, 2, 0)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	st := srv.Stats()
	if st.Failed != 2 || st.Completed != 0 {
		t.Fatalf("stats %+v, want both requests failed", st)
	}
	if st.Degraded.BatchRetries != batchRetries || st.Degraded.BatchFailures != 1 {
		t.Fatalf("degraded %v, want %d retries then 1 failure", st.Degraded, batchRetries)
	}
	for _, r := range reqs {
		if !errors.Is(r.Err, faults.ErrKernelFault) {
			t.Fatalf("request %d err = %v, want wrapped kernel fault", r.ID, r.Err)
		}
	}
}

func TestServingUnderFaultsIsDeterministic(t *testing.T) {
	// A faulty run must still terminate every request, and two runs with
	// the same seed must produce identical stats — including the fault,
	// retry, and latency tallies.
	run := func() Stats {
		env := sim.NewEnv(7)
		inj := faults.New(7, faults.Plan{KernelFailRate: 0.02, AbortRate: 0.001})
		srv := newTestServer(t, env, Config{
			MaxBatch: 4, BatchTimeout: time.Millisecond,
			Seed: 7, Faults: inj,
		}, env.Rand())
		reqs := submitN(t, env, srv, model.Inception, 16, 200*time.Microsecond)
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		env.Shutdown()
		for _, r := range reqs {
			if r.FinishAt == 0 {
				t.Fatalf("request %d never reached a terminal state", r.ID)
			}
		}
		return srv.Stats()
	}
	a := run()
	if a.Degraded.KernelFaults == 0 {
		t.Fatal("no kernel faults injected; the test exercised nothing")
	}
	if a.Completed+a.Failed != a.Requests {
		t.Fatalf("stats %+v don't account for every request", a)
	}
	if b := run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different stats:\n%+v\n%+v", a, b)
	}
}

// --- batcher edge cases ---

func TestTimeoutFlushRacesFullBatch(t *testing.T) {
	// The batch fills at the same instant the flush timeout fires. Every
	// request must be served exactly once, whichever side wins.
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{MaxBatch: 4, BatchTimeout: time.Millisecond}, env.Rand())
	submitN(t, env, srv, model.Inception, 3, 0)
	env.Go("late", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		req, err := srv.SubmitClass(model.Inception, overload.Interactive)
		if err != nil {
			t.Errorf("submit: %v", err)
			return
		}
		req.Done().Wait(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	st := srv.Stats()
	if st.Completed != 4 {
		t.Fatalf("stats %+v, want 4 completed", st)
	}
	if st.Batches < 1 || st.Batches > 2 {
		t.Fatalf("%d batches, want 1 or 2", st.Batches)
	}
}

func TestBatcherReuseAfterIdle(t *testing.T) {
	// The daemon batcher must go back to sleep on an empty queue and wake
	// again for a second wave long after the first drained.
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{MaxBatch: 2, BatchTimeout: time.Millisecond}, env.Rand())
	submitN(t, env, srv, model.Inception, 2, 0)
	for i := 0; i < 2; i++ {
		env.Go("second-wave", func(p *sim.Proc) {
			p.Sleep(80 * time.Millisecond)
			req, err := srv.SubmitClass(model.Inception, overload.Interactive)
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			req.Done().Wait(p)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	st := srv.Stats()
	if st.Completed != 4 || st.Batches != 2 {
		t.Fatalf("stats %+v, want 2 batches of 2 across the idle gap", st)
	}
}

func TestMaxBatchOverflowSplits(t *testing.T) {
	// A burst larger than 2*MaxBatch must split into full batches plus a
	// remainder, with no request left behind.
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{MaxBatch: 8, BatchTimeout: 2 * time.Millisecond}, env.Rand())
	reqs := submitN(t, env, srv, model.Inception, 19, 0)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	st := srv.Stats()
	if st.Completed != 19 || st.Batches != 3 {
		t.Fatalf("stats %+v, want 19 requests over 3 batches", st)
	}
	sizes := map[int]int{}
	for _, r := range reqs {
		sizes[r.BatchSize]++
	}
	if sizes[8] != 16 || sizes[3] != 3 {
		t.Fatalf("batch size distribution %v, want 8+8+3", sizes)
	}
}

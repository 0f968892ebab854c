package serving

import (
	"errors"
	"testing"
	"time"

	"olympian/internal/model"
	"olympian/internal/overload"
	"olympian/internal/sim"
)

// TestDrainQueuedSortedOrderAndIdempotence: drained waiters must wake in
// sorted model order (the determinism guarantee failover re-dispatch relies
// on), a same-instant second drain must find nothing, and every drained
// request must land in exactly one terminal state.
func TestDrainQueuedSortedOrderAndIdempotence(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{MaxBatch: 32, BatchTimeout: time.Hour}, env.Rand())
	// Queue two requests per model; the hour-long timeout keeps them queued.
	// Submission interleaves models so sorted-drain order != arrival order.
	models := []string{model.ResNet50, model.AlexNet, model.ResNet50, model.AlexNet}
	var order []string
	for i, m := range models {
		i, m := i, m
		env.Go("client", func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * time.Microsecond)
			req, err := srv.SubmitClass(m, overload.Interactive)
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			req.Done().Wait(p)
			if !errors.Is(req.Err, ErrDrained) {
				t.Errorf("request %d err = %v, want ErrDrained", req.ID, req.Err)
			}
			order = append(order, m)
		})
	}
	var drains []int
	env.Schedule(time.Millisecond, func() { drains = append(drains, srv.DrainQueued()) })
	env.Schedule(time.Millisecond, func() { drains = append(drains, srv.DrainQueued()) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if len(drains) != 2 || drains[0] != 4 || drains[1] != 0 {
		t.Fatalf("drain counts %v, want [4 0]", drains)
	}
	// alexnet sorts before resnet-50: both its riders wake first.
	want := []string{model.AlexNet, model.AlexNet, model.ResNet50, model.ResNet50}
	if len(order) != len(want) {
		t.Fatalf("woke %d waiters, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("drain wake order %v, want sorted %v", order, want)
		}
	}
	st := srv.Stats()
	for cls, c := range st.Degraded.ByClass {
		if c.Submitted != c.Completed+c.Shed+c.Expired+c.Failed {
			t.Fatalf("class %d conservation violated: %+v", cls, c)
		}
	}
	if got := st.Degraded.ByClass[overload.Interactive].Failed; got != 4 {
		t.Fatalf("interactive failed = %d, want 4 drained", got)
	}
}

// TestCancelAfterDrainIsNoop: a request already failed by DrainQueued must
// not be cancellable — the cancel must report a miss and must not flip the
// terminal state or double-complete the request.
func TestCancelAfterDrainIsNoop(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{MaxBatch: 32, BatchTimeout: time.Hour}, env.Rand())
	var req *Request
	env.Go("client", func(p *sim.Proc) {
		var err error
		req, err = srv.SubmitClass(model.Inception, overload.Interactive)
		if err != nil {
			t.Errorf("submit: %v", err)
		}
	})
	env.Schedule(time.Millisecond, func() { srv.DrainQueued() })
	env.Go("canceller", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond)
		if srv.Cancel(req) {
			t.Error("Cancel landed on an already-drained request")
		}
		if !errors.Is(req.Err, ErrDrained) {
			t.Errorf("cancel flipped the terminal state to %v", req.Err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if st := srv.Stats(); st.Degraded.Canceled != 0 {
		t.Fatalf("canceled tally = %d after a missed cancel, want 0", st.Degraded.Canceled)
	}
}

// TestDrainThenResubmitSurvives: requests enqueued after (or because of) a
// drain must ride the normal path — the drained state is per-request, not a
// sticky server mode.
func TestDrainThenResubmitSurvives(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{MaxBatch: 4, BatchTimeout: 2 * time.Millisecond}, env.Rand())
	completed := 0
	env.Go("client", func(p *sim.Proc) {
		req, err := srv.SubmitClass(model.Inception, overload.Interactive)
		if err != nil {
			t.Errorf("submit: %v", err)
			return
		}
		req.Done().Wait(p)
		if !errors.Is(req.Err, ErrDrained) {
			t.Errorf("first attempt err = %v, want ErrDrained", req.Err)
			return
		}
		// Resubmit from the drained waiter's own context — the failover
		// pattern the cluster uses.
		re, err := srv.SubmitClass(model.Inception, overload.Interactive)
		if err != nil {
			t.Errorf("resubmit: %v", err)
			return
		}
		re.Done().Wait(p)
		if re.Err != nil {
			t.Errorf("resubmitted request failed: %v", re.Err)
			return
		}
		completed++
	})
	env.Schedule(time.Millisecond, func() { srv.DrainQueued() })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if completed != 1 {
		t.Fatal("resubmitted request never completed")
	}
}

// TestStrandDrainNthPlantsLeak: the deliberate drain bug must strand exactly
// every Nth drained request — never completing it — so the invariant checker
// and chaos fuzzer have a real leak to find.
func TestStrandDrainNthPlantsLeak(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{MaxBatch: 32, BatchTimeout: time.Hour, TestStrandDrainNth: 2}, env.Rand())
	var reqs []*Request
	env.Go("clients", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			r, err := srv.SubmitClass(model.Inception, overload.Interactive)
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			reqs = append(reqs, r)
		}
	})
	drained := -1
	env.Schedule(time.Millisecond, func() { drained = srv.DrainQueued() })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if drained != 2 {
		t.Fatalf("DrainQueued reported %d, want 2 (two of four stranded)", drained)
	}
	stranded := 0
	for _, r := range reqs {
		if r.FinishAt == 0 {
			stranded++
		}
	}
	if stranded != 2 {
		t.Fatalf("%d requests stranded, want exactly every 2nd of 4", stranded)
	}
}

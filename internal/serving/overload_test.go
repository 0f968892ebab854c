package serving

import (
	"errors"
	"strings"
	"testing"
	"time"

	"olympian/internal/model"
	"olympian/internal/overload"
	"olympian/internal/sim"
)

func TestConfigValidationRejectsNegatives(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"maxqueue", Config{MaxQueue: -1}, "MaxQueue"},
		{"retrybackoff", Config{RetryBackoff: -time.Millisecond}, "RetryBackoff"},
		{"batchtimeout", Config{BatchTimeout: -time.Millisecond}, "BatchTimeout"},
		{"deadline", Config{Deadline: -time.Second}, "Deadline"},
		{"admission", Config{Admission: &overload.AIMDConfig{Min: 10, Max: 2}}, "min"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv(1)
			defer env.Shutdown()
			if _, err := NewServer(env, tc.cfg); err == nil {
				t.Fatalf("NewServer accepted %+v, want error", tc.cfg)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the bad field %q", err, tc.want)
			}
		})
	}
}

func TestConfigValidationAcceptsZeroValues(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Shutdown()
	if _, err := NewServer(env, Config{}); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
}

func TestSubmitClassRejectsInvalidClass(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{})
	env.Go("client", func(p *sim.Proc) {
		if _, err := srv.SubmitClass(model.Inception, overload.NumClasses); err == nil {
			t.Error("out-of-range class accepted")
		}
		if _, err := srv.SubmitClass(model.Inception, -1); err == nil {
			t.Error("negative class accepted")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
}

func TestAIMDLimiterShedsPastLimit(t *testing.T) {
	env := sim.NewEnv(2)
	srv := newTestServer(t, env, Config{
		MaxBatch: 4, BatchTimeout: time.Millisecond,
		Admission: &overload.AIMDConfig{Initial: 1, Min: 1, Max: 1},
	})
	var admitted, shedReq *Request
	env.Go("clients", func(p *sim.Proc) {
		var err error
		admitted, err = srv.SubmitClass(model.Inception, overload.Interactive)
		if err != nil {
			t.Errorf("first submit: %v", err)
			return
		}
		// Limit is pinned at 1 and one request is in flight: the next
		// interactive arrival must shed (nothing lower-class to evict).
		shedReq, err = srv.SubmitClass(model.Inception, overload.Interactive)
		if err != nil {
			t.Errorf("second submit: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if admitted.Err != nil {
		t.Fatalf("admitted request failed: %v", admitted.Err)
	}
	if !errors.Is(shedReq.Err, ErrShed) {
		t.Fatalf("over-limit request got %v, want ErrShed", shedReq.Err)
	}
	st := srv.Stats()
	if st.Degraded.AdmissionSheds != 1 {
		t.Fatalf("AdmissionSheds = %d, want 1", st.Degraded.AdmissionSheds)
	}
	if got := st.Degraded.ByClass[overload.Interactive]; got.Submitted != 2 || got.Completed != 1 || got.Shed != 1 {
		t.Fatalf("interactive class counts %+v, want 2 submitted / 1 completed / 1 shed", got)
	}
	if len(st.Admission) != 1 || st.Admission[0].Model != model.Inception ||
		st.Admission[0].Sheds == 0 || st.Admission[0].Admitted != 1 {
		t.Fatalf("admission snapshot %+v, want one inception entry with sheds and 1 admitted", st.Admission)
	}
}

func TestInteractiveEvictsQueuedBatch(t *testing.T) {
	env := sim.NewEnv(3)
	// MaxQueue 1 with an hour-long flush: the first (batch-class) request
	// parks in the queue, so the interactive arrival must displace it.
	srv := newTestServer(t, env, Config{MaxBatch: 4, BatchTimeout: time.Hour, MaxQueue: 1})
	var victim, inter *Request
	env.Go("clients", func(p *sim.Proc) {
		var err error
		victim, err = srv.SubmitClass(model.Inception, overload.Batch)
		if err != nil {
			t.Errorf("batch submit: %v", err)
			return
		}
		inter, err = srv.SubmitClass(model.Inception, overload.Interactive)
		if err != nil {
			t.Errorf("interactive submit: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if !errors.Is(victim.Err, ErrShed) {
		t.Fatalf("evicted batch request got %v, want ErrShed", victim.Err)
	}
	if inter.Err != nil {
		t.Fatalf("interactive request failed: %v", inter.Err)
	}
	st := srv.Stats()
	if st.Degraded.Evictions != 1 || st.Degraded.Drops != 0 {
		t.Fatalf("evictions=%d drops=%d, want 1 eviction and no drops", st.Degraded.Evictions, st.Degraded.Drops)
	}
	if got := st.Degraded.ByClass[overload.Batch]; got.Shed != 1 {
		t.Fatalf("batch class counts %+v, want 1 shed", got)
	}
	if got := st.Degraded.ByClass[overload.Interactive]; got.Completed != 1 {
		t.Fatalf("interactive class counts %+v, want 1 completed", got)
	}
}

func TestBatchNeverEvictsEqualOrHigherClass(t *testing.T) {
	env := sim.NewEnv(3)
	srv := newTestServer(t, env, Config{MaxBatch: 4, BatchTimeout: 2 * time.Millisecond, MaxQueue: 1})
	var first, second *Request
	env.Go("clients", func(p *sim.Proc) {
		var err error
		first, err = srv.SubmitClass(model.Inception, overload.Batch)
		if err != nil {
			t.Errorf("first submit: %v", err)
			return
		}
		second, err = srv.SubmitClass(model.Inception, overload.Batch)
		if err != nil {
			t.Errorf("second submit: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if first.Err != nil {
		t.Fatalf("queued batch request evicted by an equal class: %v", first.Err)
	}
	if !errors.Is(second.Err, ErrQueueFull) {
		t.Fatalf("same-class overflow got %v, want ErrQueueFull", second.Err)
	}
	if st := srv.Stats(); st.Degraded.Evictions != 0 || st.Degraded.Drops != 1 {
		t.Fatalf("evictions=%d drops=%d, want 0 evictions and 1 drop", st.Degraded.Evictions, st.Degraded.Drops)
	}
}

func TestCancelQueuedRequest(t *testing.T) {
	env := sim.NewEnv(5)
	srv := newTestServer(t, env, Config{MaxBatch: 8, BatchTimeout: time.Hour})
	env.Go("client", func(p *sim.Proc) {
		req, err := srv.Submit(model.Inception)
		if err != nil {
			t.Errorf("submit: %v", err)
			return
		}
		if !srv.Cancel(req) {
			t.Error("cancel of a queued request did not land")
		}
		if !errors.Is(req.Err, ErrCanceled) {
			t.Errorf("cancelled request got %v, want ErrCanceled", req.Err)
		}
		if srv.Cancel(req) {
			t.Error("second cancel of a finished request landed")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	st := srv.Stats()
	if st.Degraded.Canceled != 1 || st.Completed != 0 {
		t.Fatalf("canceled=%d completed=%d, want 1 and 0", st.Degraded.Canceled, st.Completed)
	}
}

func TestCancelDispatchedRequestAbortsJob(t *testing.T) {
	env := sim.NewEnv(6)
	srv := newTestServer(t, env, Config{MaxBatch: 1, BatchTimeout: 100 * time.Microsecond})
	env.Go("client", func(p *sim.Proc) {
		p.Sleep(time.Millisecond) // submit off t=0 so BatchedAt is observable
		req, err := srv.Submit(model.Inception)
		if err != nil {
			t.Errorf("submit: %v", err)
			return
		}
		// Let the batcher dispatch the single-request batch onto the
		// device, then cancel its only rider: the whole batch job must
		// unwind through the gang-abort path.
		p.Sleep(2 * time.Millisecond)
		if req.BatchedAt == 0 {
			t.Error("request not dispatched yet; test timing broken")
			return
		}
		if !srv.Cancel(req) {
			t.Error("cancel of a dispatched request did not land")
		}
		if !errors.Is(req.Err, ErrCanceled) {
			t.Errorf("cancelled request got %v, want ErrCanceled", req.Err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	st := srv.Stats()
	if st.Degraded.Canceled != 1 {
		t.Fatalf("canceled=%d, want 1", st.Degraded.Canceled)
	}
	if st.Completed != 0 {
		t.Fatalf("completed=%d, want 0: a cancelled rider must not complete", st.Completed)
	}
}

func TestAdmissionLimitAdaptsUnderLoad(t *testing.T) {
	env := sim.NewEnv(7)
	srv := newTestServer(t, env, Config{
		MaxBatch: 8, BatchTimeout: time.Millisecond,
		Admission: &overload.AIMDConfig{},
	})
	// A healthy trickle: every completion is a success signal, so the limit
	// must end above its initial value.
	for i := 0; i < 20; i++ {
		i := i
		env.Go("client", func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * 15 * time.Millisecond)
			req, err := srv.Submit(model.Inception)
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			req.Wait(p)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	st := srv.Stats()
	if st.Completed != 20 {
		t.Fatalf("completed %d, want 20", st.Completed)
	}
	if len(st.Admission) != 1 {
		t.Fatalf("admission snapshots %+v, want 1", st.Admission)
	}
	if a := st.Admission[0]; a.Limit <= 8 || a.Admitted != 20 || a.Decreases != 0 {
		t.Fatalf("healthy-load limiter state %+v, want limit grown past 8, 20 admitted, 0 decreases", a)
	}
}

func TestIdleLimiterAdmitsBatch(t *testing.T) {
	env := sim.NewEnv(5)
	// At limit 1 the batch fraction floors to zero slots. Arrivals spaced
	// far wider than service time each find the server idle, and an idle
	// limiter must admit them: otherwise nothing ever completes and the
	// limit never grows back.
	srv := newTestServer(t, env, Config{
		MaxBatch: 4, BatchTimeout: time.Millisecond,
		Admission: &overload.AIMDConfig{Initial: 1, Min: 1},
	})
	const n = 5
	for i := 0; i < n; i++ {
		i := i
		env.Go("client", func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * time.Second)
			req, err := srv.SubmitClass(model.Inception, overload.Batch)
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			req.Wait(p)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	st := srv.Stats()
	if got := st.Degraded.ByClass[overload.Batch]; got.Completed != n || got.Shed != 0 {
		t.Fatalf("batch class counts %+v, want %d completed and none shed", got, n)
	}
	if a := st.Admission[0]; a.Admitted != n {
		t.Fatalf("limiter state %+v, want %d admitted", a, n)
	}
}

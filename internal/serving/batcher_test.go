package serving

import (
	"errors"
	"testing"
	"time"

	"olympian/internal/model"
	"olympian/internal/overload"
	"olympian/internal/sim"
)

// TestBatcherFlushInstants pins the instant at which the batcher dispatches
// each request, with MaxBatch 4 and BatchTimeout 10 ms. A batcher that is
// sleeping out a timeout ignores arrivals and cancels until its timer
// fires; it then flushes a full batch, or re-arms at the timeout of the
// request now at the head of the queue.
func TestBatcherFlushInstants(t *testing.T) {
	type step struct {
		at     time.Duration
		submit int // requests submitted at this instant
		cancel int // index of a request to cancel at this instant, or -1
		drain  bool
	}
	sub := func(ms, n int) step { return step{at: time.Duration(ms) * time.Millisecond, submit: n, cancel: -1} }
	cancel := func(ms, i int) step { return step{at: time.Duration(ms) * time.Millisecond, cancel: i} }
	drain := func(ms int) step { return step{at: time.Duration(ms) * time.Millisecond, cancel: -1, drain: true} }
	cases := []struct {
		name  string
		steps []step
		// want is each request's BatchedAt in ms, in submission order; a
		// negative entry is a request failed before dispatch.
		want []int
		errs []error
	}{{
		// The batch is full at 3 ms, but the batcher sleeps until the
		// oldest request's timeout at 10 ms; the two left over re-arm at
		// 4 ms + 10 ms.
		name:  "fills while sleeping",
		steps: []step{sub(0, 1), sub(1, 1), sub(2, 1), sub(3, 1), sub(4, 1), sub(5, 1)},
		want:  []int{10, 10, 10, 10, 14, 14},
	}, {
		// The head is cancelled mid-sleep; the timer still fires at 10 ms
		// and re-arms at the new head's timeout, 4 ms + 10 ms.
		name:  "head cancelled mid-sleep",
		steps: []step{sub(0, 1), sub(4, 1), cancel(5, 0)},
		want:  []int{-1, 14},
		errs:  []error{ErrCanceled, nil},
	}, {
		// A drain at 3 ms empties the queue, an arrival at 6 ms does not
		// wake the sleeping batcher, and the old timer at 10 ms re-arms at
		// 6 ms + 10 ms.
		name:  "drain mid-sleep, then an arrival",
		steps: []step{sub(0, 1), sub(2, 1), drain(3), sub(6, 1)},
		want:  []int{-1, -1, 16},
		errs:  []error{ErrDrained, ErrDrained, nil},
	}, {
		// The first wave flushes at 10 ms and leaves the batcher idle; the
		// second wave wakes it at once and flushes 10 ms later.
		name:  "idle gap, then a second wave",
		steps: []step{sub(0, 1), sub(1, 1), sub(30, 1), sub(31, 1)},
		want:  []int{10, 10, 40, 40},
	}, {
		// Nine requests at one instant: two full batches go back to back
		// at 5 ms, and the ninth waits out its timeout.
		name:  "burst over MaxBatch",
		steps: []step{sub(5, 9)},
		want:  []int{5, 5, 5, 5, 5, 5, 5, 5, 15},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv(1)
			srv := newTestServer(t, env, Config{MaxBatch: 4, BatchTimeout: 10 * time.Millisecond}, env.Rand())
			var reqs []*Request
			for _, st := range tc.steps {
				env.Schedule(st.at, func() {
					for range st.submit {
						r, err := srv.SubmitClass(model.AlexNet, overload.Interactive)
						if err != nil {
							t.Error(err)
							return
						}
						reqs = append(reqs, r)
					}
					if st.cancel >= 0 && !srv.Cancel(reqs[st.cancel]) {
						t.Errorf("cancel of request %d did not land", st.cancel)
					}
					if st.drain {
						srv.DrainQueued()
					}
				})
			}
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			env.Shutdown()
			if len(reqs) != len(tc.want) {
				t.Fatalf("%d requests, want %d", len(reqs), len(tc.want))
			}
			for i, r := range reqs {
				want := sim.Time(0)
				if tc.want[i] >= 0 {
					want = sim.Time(time.Duration(tc.want[i]) * time.Millisecond)
				}
				var wantErr error
				if tc.errs != nil {
					wantErr = tc.errs[i]
				}
				if r.BatchedAt != want || !errors.Is(r.Err, wantErr) {
					t.Errorf("request %d: batched at %v with err %v, want %v with %v", i, r.BatchedAt, r.Err, want, wantErr)
				}
			}
		})
	}
}

// TestCancelUnqueued: Cancel of a request the server never queued reports
// false and changes nothing.
func TestCancelUnqueued(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{}, env.Rand())
	if srv.Cancel(new(Request)) {
		t.Fatal("cancel of a request the server never queued landed")
	}
	if c := srv.Stats().Degraded.Canceled; c != 0 {
		t.Fatalf("%d cancels booked, want 0", c)
	}
	env.Shutdown()
}

package serving

import (
	"errors"
	"slices"
	"testing"
	"time"

	"olympian/internal/executor"
	"olympian/internal/faults"
	"olympian/internal/graph"
	"olympian/internal/model"
	"olympian/internal/overload"
	"olympian/internal/sim"
)

// TestRecycledBatchRecordIgnoresStaleCancel completes a one-request batch,
// lets the next batch reuse its record, and then cancels the first request:
// the cancel must not land, and the second batch must run to completion.
func TestRecycledBatchRecordIgnoresStaleCancel(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{MaxBatch: 1, BatchTimeout: 100 * time.Microsecond}, env.Rand())
	var first, second *Request
	env.Go("client", func(p *sim.Proc) {
		var err error
		if first, err = srv.SubmitClass(model.Inception, overload.Interactive); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(time.Millisecond)
		rec := first.batch
		if rec == nil {
			t.Error("first request not dispatched yet; test timing broken")
			return
		}
		first.Done().Wait(p)
		if first.batch != nil {
			t.Error("a finished rider still points at its batch record")
		}
		if len(srv.free) != 1 || srv.free[0] != rec {
			t.Error("finished batch record not back on the free list")
			return
		}
		if second, err = srv.SubmitClass(model.Inception, overload.Interactive); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(time.Millisecond)
		if second.batch != rec {
			t.Error("second batch did not reuse the first batch's record")
			return
		}
		if srv.Cancel(first) {
			t.Error("cancel of a completed request landed")
		}
		if rec.job.Aborted() || rec.live != 1 {
			t.Errorf("stale cancel reached the recycled record: job aborted=%v, %d live riders", rec.job.Aborted(), rec.live)
		}
		second.Done().Wait(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if t.Failed() {
		return
	}
	if first.Err != nil || second.Err != nil {
		t.Fatalf("requests failed: %v, %v", first.Err, second.Err)
	}
	if st := srv.Stats(); st.Completed != 2 || st.Degraded.Canceled != 0 {
		t.Fatalf("completed=%d canceled=%d, want 2 and 0", st.Completed, st.Degraded.Canceled)
	}
}

// TestReusedCancelledRiderIgnoredByOldBatch cancels one rider of a running
// two-rider batch and, before that batch finishes, reuses the rider's record
// in a new Submit that dispatches in a batch of its own. The old batch must
// neither complete the reused request nor clear its batch field: the
// caller-held analogue of TestRecycledBatchRecordIgnoresStaleCancel.
func TestReusedCancelledRiderIgnoredByOldBatch(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{MaxBatch: 2, BatchTimeout: 100 * time.Microsecond}, env.Rand())
	var r, other Request
	env.Go("client", func(p *sim.Proc) {
		for _, req := range []*Request{&r, &other} {
			if err := srv.Submit(req, model.Inception, overload.Interactive); err != nil {
				t.Error(err)
				return
			}
		}
		p.Sleep(time.Millisecond)
		old := r.batch
		if old == nil || other.batch != old {
			t.Error("the two requests did not dispatch together; test timing broken")
			return
		}
		if !srv.Cancel(&r) || !errors.Is(r.Err, ErrCanceled) {
			t.Errorf("cancel of a dispatched rider did not land: %v", r.Err)
			return
		}
		if r.batch != nil || old.live != 1 || slices.Contains(old.riders, &r) {
			t.Error("the cancelled rider is still on its batch")
		}
		if err := srv.Submit(&r, model.Inception, overload.Interactive); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(time.Millisecond)
		fresh := r.batch
		if fresh == nil || fresh == old || other.FinishAt != 0 {
			t.Error("the reused request was not dispatched apart while the old batch ran; test timing broken")
			return
		}
		other.Done().Wait(p)
		if r.FinishAt != 0 || r.Err != nil {
			t.Errorf("the old batch ended the reused request: finish %v, err %v", r.FinishAt, r.Err)
		}
		if r.batch != fresh {
			t.Error("the old batch cleared the reused request's batch field")
		}
		r.Done().Wait(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if t.Failed() {
		return
	}
	if r.Err != nil || other.Err != nil {
		t.Fatalf("requests failed: %v, %v", r.Err, other.Err)
	}
	if st := srv.Stats(); st.Completed != 2 || st.Degraded.Canceled != 1 {
		t.Fatalf("completed=%d canceled=%d, want 2 and 1", st.Completed, st.Degraded.Canceled)
	}
}

// TestRetriedBatchReusesJob fails every attempt of one batch: each attempt
// runs on the record's one job, under the next engine job ID.
func TestRetriedBatchReusesJob(t *testing.T) {
	env := sim.NewEnv(1)
	inj := faults.New(3, faults.Plan{KernelFailRate: 1})
	srv := newTestServer(t, env, Config{MaxBatch: 4, BatchTimeout: time.Millisecond, Faults: inj}, env.Rand())
	var jobs []*executor.Job
	var ids []int
	srv.eng.NodeObserver = func(job *executor.Job, _ *graph.Node, _, _ time.Duration) {
		if n := len(ids); n == 0 || ids[n-1] != job.ID {
			jobs, ids = append(jobs, job), append(ids, job.ID)
		}
	}
	reqs := submitN(t, env, srv, model.Inception, 2, 0)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if len(ids) != batchRetries+1 {
		t.Fatalf("attempts ran jobs %v, want %d attempts", ids, batchRetries+1)
	}
	rec := &srv.free[0].job
	for i, id := range ids {
		if id != i+1 || jobs[i] != rec {
			t.Fatalf("attempt %d ran job %d at %p, want job %d on the record's job %p", i, id, jobs[i], i+1, rec)
		}
	}
	for _, r := range reqs {
		if r.Err == nil {
			t.Fatalf("request %d succeeded on a device that fails every kernel", r.ID)
		}
	}
}

// TestQueueRemovalsClearTail checks that removing requests from a batcher
// queue, by Cancel or by deadline expiry, leaves no request pointer in the
// queue's array past its length.
func TestQueueRemovalsClearTail(t *testing.T) {
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{MaxBatch: 8, BatchTimeout: time.Hour, Deadline: time.Millisecond}, env.Rand())
	checkTail := func(what string, want int) {
		t.Helper()
		q := srv.byName[model.Inception].queue
		if len(q) != want {
			t.Errorf("after %s: %d queued, want %d", what, len(q), want)
		}
		for i, r := range q[len(q):cap(q)] {
			if r != nil {
				t.Errorf("after %s: slot %d past length %d still holds request %d", what, len(q)+i, len(q), r.ID)
			}
		}
	}
	env.Go("client", func(p *sim.Proc) {
		var reqs []*Request
		for i := 0; i < 4; i++ {
			r, err := srv.SubmitClass(model.Inception, overload.Interactive)
			if err != nil {
				t.Error(err)
				return
			}
			reqs = append(reqs, r)
		}
		if !srv.Cancel(reqs[1]) {
			t.Error("cancel of a queued request did not land")
		}
		checkTail("cancel", 3)
		p.Sleep(2 * time.Millisecond)
		for i := 0; i < 2; i++ {
			if _, err := srv.SubmitClass(model.Inception, overload.Interactive); err != nil {
				t.Error(err)
			}
		}
		srv.dropExpired(srv.byName[model.Inception])
		checkTail("expiry", 2)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
}

package core

import (
	"errors"
	"testing"
	"time"

	"olympian/internal/executor"
	"olympian/internal/faults"
	"olympian/internal/gpu"
	"olympian/internal/sim"
)

// Failure injection: the scheduler must degrade gracefully, not wedge,
// when its environment misbehaves.

func TestStaleProfileStillFair(t *testing.T) {
	// A profile whose costs are uniformly wrong by 2x (e.g. profiled on a
	// different clock) changes quantum sizes but must not break fairness:
	// all clients still receive equal (if mis-sized) shares.
	q := 400 * time.Microsecond
	h := newHarness(t, 1, Config{Quantum: q, SwitchCost: 0})
	g := chainGraph(t, "m", 200, 80*time.Microsecond)
	prof := uniformProfile(g, q)
	for i := range prof.NodeCost {
		prof.NodeCost[i] *= 2
	}
	prof.TotalCost *= 2
	h.sched.SetProfile(g, prof)
	fin := h.run(t, []clientSpec{{graph: g}, {graph: g}, {graph: g}})
	spread := float64(fin[2]) / float64(fin[0])
	if spread < 0.98 || spread > 1.05 {
		t.Fatalf("stale profile broke fairness: %v", fin)
	}
}

func TestRapidChurn(t *testing.T) {
	// Many tiny jobs registering and deregistering in quick succession:
	// the token must always land on a live job and the run must drain.
	q := 100 * time.Microsecond
	for _, policy := range []Policy{NewFair(), NewWeightedFair(), NewPriority(), NewLottery(), NewDeficitRR()} {
		h := newHarness(t, 1, Config{Quantum: q, SwitchCost: 0, Policy: policy})
		g := chainGraph(t, "tiny", 3, 30*time.Microsecond)
		h.sched.SetProfile(g, uniformProfile(g, q))
		fin := h.run(t, []clientSpec{
			{graph: g, batches: 20, weight: 2, priority: 1},
			{graph: g, batches: 20, weight: 1, priority: 2},
			{graph: g, batches: 20, weight: 1, priority: 1},
		})
		for i, f := range fin {
			if f <= 0 {
				t.Fatalf("%s: client %d never finished", policy.Name(), i)
			}
		}
		if len(h.sched.jobs) != 0 {
			t.Fatalf("%s: %d jobs leaked", policy.Name(), len(h.sched.jobs))
		}
	}
}

func TestLateArrivalGetsServed(t *testing.T) {
	q := 200 * time.Microsecond
	h := newHarness(t, 1, Config{Quantum: q, SwitchCost: 0, Policy: NewPriority()})
	g := chainGraph(t, "m", 100, 50*time.Microsecond)
	h.sched.SetProfile(g, uniformProfile(g, q))
	var lateFinish sim.Time
	// Two low-priority clients start immediately; a high-priority client
	// arrives mid-run and must preempt at the next quantum boundary.
	for i := 0; i < 2; i++ {
		h.env.Go("early", func(p *sim.Proc) {
			job := new(executor.Job)
			h.eng.InitJob(job, &gpu.Stream{ID: i}, g)
			job.Priority = 1
			h.eng.Run(p, job)
		})
	}
	h.env.Go("late", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond)
		job := new(executor.Job)
		h.eng.InitJob(job, &gpu.Stream{ID: 9}, g)
		job.Priority = 5
		h.eng.Run(p, job)
		lateFinish = p.Now()
	})
	if err := h.env.Run(); err != nil {
		t.Fatal(err)
	}
	h.env.Shutdown()
	// Solo time is 5ms; the late high-priority job should finish roughly
	// solo time after its 2ms arrival, far earlier than a fair share.
	if lateFinish > sim.Time(9*time.Millisecond) {
		t.Fatalf("high-priority late arrival finished at %v, want <9ms", lateFinish)
	}
}

func TestHolderAbortReclaimsToken(t *testing.T) {
	// The current token holder is killed mid-quantum. Its parked gang must
	// unwind (Cancel + abort-aware Yield), Deregister must hand the token
	// to a survivor, and the survivors must split the GPU fairly — the run
	// must never wedge on a token stranded with a dead gang.
	q := 500 * time.Microsecond
	h := newHarness(t, 1, Config{Quantum: q, SwitchCost: 0})
	g := chainGraph(t, "m", 300, 100*time.Microsecond) // 30ms solo
	h.sched.SetProfile(g, uniformProfile(g, q))
	jobs := make([]*executor.Job, 3)
	finishes := make([]time.Duration, 3)
	for i := 0; i < 3; i++ {
		i := i
		h.env.Go("client", func(p *sim.Proc) {
			jobs[i] = new(executor.Job)
			h.eng.InitJob(jobs[i], &gpu.Stream{ID: i}, g)
			h.eng.Run(p, jobs[i])
			finishes[i] = time.Duration(p.Now())
		})
	}
	abortedClient := -1
	h.env.Go("chaos", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond)
		abortedClient = holderClient(h.sched)
		if abortedClient < 0 {
			t.Error("no token holder at abort time")
			return
		}
		h.eng.AbortJob(jobs[abortedClient], faults.ErrJobAborted)
	})
	if err := h.env.Run(); err != nil {
		t.Fatalf("run wedged after holder abort: %v", err)
	}
	h.env.Shutdown()
	if len(h.sched.jobs) != 0 {
		t.Fatalf("%d jobs still registered after drain", len(h.sched.jobs))
	}
	if !errors.Is(jobs[abortedClient].Err(), faults.ErrJobAborted) {
		t.Fatalf("aborted job err = %v", jobs[abortedClient].Err())
	}
	var survivors []time.Duration
	for i, f := range finishes {
		if i == abortedClient {
			continue
		}
		if jobs[i].Err() != nil {
			t.Fatalf("survivor %d failed: %v", i, jobs[i].Err())
		}
		if f <= 0 {
			t.Fatalf("survivor %d never finished", i)
		}
		survivors = append(survivors, f)
	}
	// The aborted gang's Run returned promptly, well before the survivors.
	if ab := finishes[abortedClient]; ab <= 0 || ab >= survivors[0] {
		t.Fatalf("aborted client finished at %v, survivors at %v", ab, survivors)
	}
	// Fairness among survivors: both held the GPU half the remaining run,
	// so their finish times must stay within a few quanta of each other.
	spread := float64(survivors[1]) / float64(survivors[0])
	if spread < 1.0 {
		spread = 1 / spread
	}
	if spread > 1.05 {
		t.Fatalf("survivor fairness broken: spread %.3f, finishes %v", spread, survivors)
	}
}

func TestInjectedAbortsNeverStrandToken(t *testing.T) {
	// Randomly injected aborts across a churning multi-client workload:
	// whatever dies, every surviving batch completes, the run drains, and
	// fairness holds among clients once their aborted batches are retried.
	q := 300 * time.Microsecond
	env := sim.NewEnv(5)
	dev := gpu.New(env, testSpec, env.Rand())
	sched := New(env, dev, Config{Quantum: q, SwitchCost: 0})
	inj := faults.New(5, faults.Plan{AbortRate: 0.002})
	eng := executor.New(env, dev, executor.Config{Faults: inj}, sched)
	g := chainGraph(t, "m", 100, 50*time.Microsecond) // 5ms solo
	sched.SetProfile(g, uniformProfile(g, q))
	const nClients, nBatches = 4, 5
	finishes := make([]time.Duration, nClients)
	retries := 0
	for i := 0; i < nClients; i++ {
		i := i
		env.Go("client", func(p *sim.Proc) {
			stream := &gpu.Stream{ID: i}
			for b := 0; b < nBatches; b++ {
				for {
					job := new(executor.Job)
					eng.InitJob(job, stream, g)
					eng.Run(p, job)
					if job.Err() == nil {
						break
					}
					retries++
				}
			}
			finishes[i] = time.Duration(p.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatalf("run wedged under injected aborts: %v", err)
	}
	env.Shutdown()
	if len(sched.jobs) != 0 {
		t.Fatalf("%d jobs leaked", len(sched.jobs))
	}
	if inj.Counters().JobAborts == 0 {
		t.Fatal("no aborts injected; the test exercised nothing")
	}
	if retries == 0 {
		t.Fatal("no batches retried")
	}
	minF, maxF := finishes[0], finishes[0]
	for _, f := range finishes {
		if f <= 0 {
			t.Fatalf("a client never finished: %v", finishes)
		}
		if f < minF {
			minF = f
		}
		if f > maxF {
			maxF = f
		}
	}
	// Retried work skews individual totals, but fair sharing must keep the
	// spread modest (each retry re-runs at most one 5ms batch).
	if spread := float64(maxF) / float64(minF); spread > 1.35 {
		t.Fatalf("fairness spread %.3f under aborts, finishes %v", spread, finishes)
	}
}

func TestDeregisterWhileSuspended(t *testing.T) {
	// A job that completes its last node as a non-holder (overflow path)
	// must deregister cleanly and pass nothing stale to the policy.
	q := 150 * time.Microsecond
	h := newHarness(t, 1, Config{Quantum: q, SwitchCost: 0})
	short := chainGraph(t, "short", 4, 60*time.Microsecond)
	long := chainGraph(t, "long", 300, 60*time.Microsecond)
	h.sched.SetProfile(short, uniformProfile(short, q))
	h.sched.SetProfile(long, uniformProfile(long, q))
	fin := h.run(t, []clientSpec{
		{graph: short, batches: 8},
		{graph: long},
		{graph: long},
	})
	for i, f := range fin {
		if f <= 0 {
			t.Fatalf("client %d never finished: %v", i, fin)
		}
	}
}

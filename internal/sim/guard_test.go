package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refSemaphore is the semaphore written the plain way, on an unguarded
// Cond: every wake-up switches into the waiter, which re-checks and waits
// again when its slot was taken. Semaphore must grant slots in exactly the
// same order and at the same times.
type refSemaphore struct {
	free   int
	cond   *Cond
	futile int // wake-ups that found no free slot
}

func (s *refSemaphore) Acquire(p *Proc) {
	for woken := false; s.free <= 0; woken = true {
		if woken {
			s.futile++
		}
		s.cond.Wait(p)
	}
	s.free--
}

func (s *refSemaphore) Release() {
	s.free++
	s.cond.Signal()
}

type semaphore interface {
	Acquire(p *Proc)
	Release()
}

// grant is one acquisition: which proc took a slot, and when.
type grant struct {
	proc int
	at   Time
}

// bargeWorkload is a random barging schedule: procs that each acquire a
// slot several times, hold it, and come back after a gap that is often zero,
// so a releasing proc regularly re-acquires before the waiter it woke runs.
type bargeWorkload struct {
	width int
	start [][]Duration // per proc: arrival offset, then hold/gap pairs
}

func randomBarge(rng *rand.Rand) bargeWorkload {
	w := bargeWorkload{width: 1 + rng.Intn(3)}
	gap := func() Duration {
		if rng.Intn(2) == 0 {
			return 0
		}
		return Duration(rng.Intn(4)) * time.Microsecond
	}
	procs := 2 + rng.Intn(6)
	for range procs {
		rounds := 1 + rng.Intn(6)
		plan := []Duration{gap()}
		for range rounds {
			plan = append(plan, Duration(rng.Intn(3))*time.Microsecond, gap())
		}
		w.start = append(w.start, plan)
	}
	return w
}

// run plays the workload on the semaphore mk builds and returns the grant
// sequence, the end time and the environment's hand-off count.
func (w bargeWorkload) run(t *testing.T, mk func(*Env) semaphore) ([]grant, Time, uint64) {
	env := NewEnv(1)
	sem := mk(env)
	var grants []grant
	for i, plan := range w.start {
		env.Go("barger", func(p *Proc) {
			p.Sleep(plan[0])
			for r := 1; r+1 < len(plan); r += 2 {
				sem.Acquire(p)
				grants = append(grants, grant{i, p.Now()})
				p.Sleep(plan[r])
				sem.Release()
				if plan[r+1] > 0 {
					p.Sleep(plan[r+1])
				}
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	return grants, env.Now(), env.Handoffs()
}

// Property: on random barging workloads the guarded Semaphore grants the
// same slots to the same procs at the same times as the plain Cond loop,
// and spends strictly fewer carrier switches whenever the plain loop woke a
// waiter for nothing.
func TestPropertyGuardedSemaphoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	barged := 0
	for c := 0; c < 300; c++ {
		w := randomBarge(rng)
		var ref *refSemaphore
		want, wantEnd, refHandoffs := w.run(t, func(env *Env) semaphore {
			ref = &refSemaphore{free: w.width, cond: env.NewCond("semaphore")}
			return ref
		})
		got, gotEnd, handoffs := w.run(t, func(env *Env) semaphore { return env.NewSemaphore(w.width) })
		if !slices.Equal(got, want) || gotEnd != wantEnd {
			t.Fatalf("case %d (%+v): grants %v ending %v, reference %v ending %v", c, w, got, gotEnd, want, wantEnd)
		}
		switch {
		case ref.futile > 0 && handoffs >= refHandoffs:
			t.Fatalf("case %d: %d hand-offs with %d futile reference wake-ups, reference %d", c, handoffs, ref.futile, refHandoffs)
		case handoffs > refHandoffs:
			t.Fatalf("case %d: %d hand-offs, more than the reference's %d", c, handoffs, refHandoffs)
		}
		if ref.futile > 0 {
			barged++
		}
	}
	if barged < 50 {
		t.Fatalf("only %d of 300 cases had a futile wake-up; the generator no longer exercises the guard", barged)
	}
}

// refWaitGroup is WaitGroup on an unguarded Cond.
type refWaitGroup struct {
	count int
	cond  *Cond
}

func (wg *refWaitGroup) Add(n int) { wg.count += n }

func (wg *refWaitGroup) Done() {
	if wg.count--; wg.count == 0 {
		wg.cond.Broadcast()
	}
}

func (wg *refWaitGroup) Wait(p *Proc) {
	for wg.count > 0 {
		wg.cond.Wait(p)
	}
}

type waitGroup interface {
	Add(n int)
	Done()
	Wait(p *Proc)
}

// A WaitGroup whose count is raised again between the Broadcast and the
// waiter's turn keeps its waiter parked, without a switch and with the same
// deadlock-report reason, until the count next drains.
func TestWaitGroupGuardRequeues(t *testing.T) {
	run := func(mk func(*Env) waitGroup) (done Time, handoffs uint64, why string) {
		env := NewEnv(1)
		wg := mk(env)
		wg.Add(1)
		waiter := env.Go("waiter", func(p *Proc) {
			wg.Wait(p)
			done = p.Now()
		})
		env.Go("worker", func(p *Proc) {
			p.Sleep(time.Microsecond)
			wg.Done()
			wg.Add(1) // before the waiter's wake-up is dispatched
			p.Sleep(time.Microsecond)
			why = waiter.why
			wg.Done()
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		env.Shutdown()
		return done, env.Handoffs(), why
	}
	gotDone, got, gotWhy := run(func(env *Env) waitGroup { return env.NewWaitGroup() })
	wantDone, want, wantWhy := run(func(env *Env) waitGroup {
		return &refWaitGroup{cond: env.NewCond("waitgroup")}
	})
	if gotDone != Time(2*time.Microsecond) || gotDone != wantDone {
		t.Fatalf("waiter released at %v (reference %v), want 2µs", gotDone, wantDone)
	}
	if gotWhy != wantWhy {
		t.Fatalf("parked waiter reported as %q, reference %q", gotWhy, wantWhy)
	}
	if got >= want {
		t.Fatalf("%d hand-offs, reference %d: the futile wake-up was switched into", got, want)
	}
}

package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	env := NewEnv(1)
	sem := env.NewSemaphore(2)
	inUse, peak := 0, 0
	for i := 0; i < 6; i++ {
		env.Go("worker", func(p *Proc) {
			sem.Acquire(p)
			inUse++
			if inUse > peak {
				peak = inUse
			}
			p.Sleep(time.Millisecond)
			inUse--
			sem.Release()
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if peak != 2 {
		t.Fatalf("peak concurrency %d, want 2", peak)
	}
	if env.Now() != Time(3*time.Millisecond) {
		t.Fatalf("6 tasks at width 2 should take 3ms, took %v", env.Now())
	}
	if sem.free != 2 {
		t.Fatalf("free %d, want 2", sem.free)
	}
}

func TestSemaphoreFIFOWakeup(t *testing.T) {
	env := NewEnv(1)
	sem := env.NewSemaphore(1)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		env.Go("worker", func(p *Proc) {
			// Stagger arrivals so the wait order is deterministic.
			p.Sleep(time.Duration(i) * time.Microsecond)
			sem.Acquire(p)
			order = append(order, i)
			p.Sleep(time.Millisecond)
			sem.Release()
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("acquisition order %v, want FIFO", order)
		}
	}
}

// Property: for any task count and width, a semaphore-gated batch of
// fixed-length tasks completes in ceil(n/width) slots.
func TestPropertySemaphoreMakespan(t *testing.T) {
	prop := func(nRaw, wRaw uint8) bool {
		n := int(nRaw)%20 + 1
		w := int(wRaw)%5 + 1
		env := NewEnv(1)
		sem := env.NewSemaphore(w)
		for i := 0; i < n; i++ {
			env.Go("worker", func(p *Proc) {
				sem.Acquire(p)
				p.Sleep(time.Millisecond)
				sem.Release()
			})
		}
		if err := env.Run(); err != nil {
			return false
		}
		slots := (n + w - 1) / w
		return env.Now() == Time(time.Duration(slots)*time.Millisecond)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestShutdownTerminatesParkedProcs(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	cleanup := 0
	for i := 0; i < 3; i++ {
		p := env.Go("stuck", func(p *Proc) {
			defer func() { cleanup++ }()
			ev.Wait(p)
		})
		p.SetDaemon(true)
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if cleanup != 3 {
		t.Fatalf("deferred cleanups ran %d times, want 3", cleanup)
	}
}

func TestDaemonsDoNotDeadlock(t *testing.T) {
	env := NewEnv(1)
	cond := env.NewCond("idle")
	p := env.Go("daemon", func(p *Proc) { cond.Wait(p) })
	p.SetDaemon(true)
	env.Go("work", func(p *Proc) { p.Sleep(time.Millisecond) })
	if err := env.Run(); err != nil {
		t.Fatalf("daemon should not trigger deadlock: %v", err)
	}
	env.Shutdown()
}

package sim

import (
	"testing"
	"time"
)

// warmHeap grows the event heap's backing array so steady-state pushes in
// the measurements below never reallocate.
func warmHeap(t *testing.T, env *Env, n int) {
	t.Helper()
	fn := func() {}
	for i := 0; i < n; i++ {
		env.Schedule(time.Duration(i), fn)
	}
	if err := env.Run(); err != nil {
		t.Fatalf("warmup run: %v", err)
	}
}

func TestScheduleSteadyStateAllocs(t *testing.T) {
	env := NewEnv(1)
	warmHeap(t, env, 2048)
	fn := func() {}
	avg := testing.AllocsPerRun(1000, func() {
		env.Schedule(time.Microsecond, fn)
	})
	if avg > 0 {
		t.Fatalf("Env.Schedule allocates %.2f/op on the steady-state path, want 0", avg)
	}
	if err := env.Run(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestSleepSteadyStateAllocs(t *testing.T) {
	env := NewEnv(1)
	warmHeap(t, env, 64)
	var avg float64
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(time.Millisecond) // settle past spawn
		avg = testing.AllocsPerRun(500, func() {
			p.Sleep(time.Microsecond)
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if avg > 0 {
		t.Fatalf("Proc.Sleep allocates %.2f/op on the self-dispatch path, want 0", avg)
	}
}

func TestTriggerSteadyStateAllocs(t *testing.T) {
	env := NewEnv(1)
	warmHeap(t, env, 256)
	const n = 128
	events := make([]*Event, n)
	for i := range events {
		ev := env.NewEvent()
		events[i] = ev
		env.Go("waiter", func(p *Proc) { ev.Wait(p) }).SetDaemon(true)
	}
	if err := env.Run(); err != nil { // park every waiter
		t.Fatal(err)
	}
	i := 0
	avg := testing.AllocsPerRun(n-1, func() {
		events[i].Trigger()
		i++
	})
	if err := env.Run(); err != nil { // drain the wakeups
		t.Fatal(err)
	}
	env.Shutdown()
	if avg > 0 {
		t.Fatalf("Event.Trigger allocates %.2f/op per wakeup, want 0", avg)
	}
}

func TestSignalSteadyStateAllocs(t *testing.T) {
	env := NewEnv(1)
	warmHeap(t, env, 256)
	const n = 128
	cond := env.NewCond("bench")
	for i := 0; i < n; i++ {
		env.Go("waiter", func(p *Proc) { cond.Wait(p) }).SetDaemon(true)
	}
	if err := env.Run(); err != nil { // park every waiter
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(n-1, func() {
		cond.Signal()
	})
	if err := env.Run(); err != nil { // drain the wakeups
		t.Fatal(err)
	}
	env.Shutdown()
	if avg > 0 {
		t.Fatalf("Cond.Signal allocates %.2f/op per wakeup, want 0", avg)
	}
}

// TestCondWaitSteadyStateAllocs locks in that re-waiting on a condition
// variable (the thread-pool idle loop) does not allocate: the park reason is
// precomputed at NewCond time.
func TestCondWaitSteadyStateAllocs(t *testing.T) {
	env := NewEnv(1)
	warmHeap(t, env, 64)
	cond := env.NewCond("bench")
	var avg float64
	env.Go("waiter", func(p *Proc) {
		avg = testing.AllocsPerRun(200, func() {
			// Self-schedule the wakeup, then park exactly as Cond.Wait does;
			// each iteration redispatches via the in-place event loop.
			env.scheduleProc(0, p)
			p.park(cond.parkWhy)
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if avg > 0 {
		t.Fatalf("Cond.Wait park path allocates %.2f/op, want 0", avg)
	}
}

// TestCondWaitSignalCycleAllocs locks in that a process re-waiting on a
// condition variable that another process keeps signalling (a pool worker,
// a semaphore hand-off) reuses the waiter list: Signal shifts it in place
// instead of reslicing from the front.
func TestCondWaitSignalCycleAllocs(t *testing.T) {
	env := NewEnv(1)
	warmHeap(t, env, 64)
	cond := env.NewCond("bench")
	woken := 0
	env.Go("waiter", func(p *Proc) {
		for {
			cond.Wait(p)
			woken++
		}
	}).SetDaemon(true)
	var avg float64
	env.Go("signaller", func(p *Proc) {
		p.Yield() // let the waiter park first
		avg = testing.AllocsPerRun(200, func() {
			cond.Signal()
			p.Yield() // the waiter runs, re-waits, and hands back
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if woken != 201 {
		t.Fatalf("waiter woke %d times, want 201", woken)
	}
	if avg > 0 {
		t.Fatalf("Cond wait/signal cycle allocates %.2f/op, want 0", avg)
	}
}

// TestEventResetCycleAllocs locks in that a reused event — Reset, Wait,
// Trigger, over and over, as gpu.Device.Exec does with its pooled kernels'
// completion events — allocates nothing: Trigger clears its waiter list in
// place.
func TestEventResetCycleAllocs(t *testing.T) {
	env := NewEnv(1)
	warmHeap(t, env, 64)
	ev := env.NewEvent()
	ev.Trigger()
	fire := func() { ev.Trigger() }
	var avg float64
	env.Go("waiter", func(p *Proc) {
		avg = testing.AllocsPerRun(200, func() {
			ev.Reset()
			env.Schedule(time.Microsecond, fire)
			ev.Wait(p)
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if !ev.Triggered() {
		t.Fatal("event not triggered after the last cycle")
	}
	if avg > 0 {
		t.Fatalf("Event Reset/Wait/Trigger cycle allocates %.2f/op, want 0", avg)
	}
}

func TestEventResetWithWaitersPanics(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	env.Go("waiter", func(p *Proc) { ev.Wait(p) }).SetDaemon(true)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	defer env.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("Reset of an event with a parked waiter did not panic")
		}
	}()
	ev.Reset()
}

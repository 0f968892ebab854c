package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// pooled returns the number of carriers in the shared pool.
func pooled() int {
	pool.Lock()
	defer pool.Unlock()
	return len(pool.idle)
}

func TestProcPanicSurfacesFromRun(t *testing.T) {
	cases := []struct {
		name  string
		setup func(env *Env)
	}{
		{"proc", func(env *Env) {
			env.Go("boom", func(p *Proc) {
				p.Sleep(time.Millisecond)
				panic("boom")
			})
			env.Go("bystander", func(p *Proc) { p.Sleep(2 * time.Millisecond) })
		}},
		// The callback runs inside the sleeping proc's in-place event loop,
		// on its carrier rather than on the caller's goroutine.
		{"callback-in-park", func(env *Env) {
			env.Schedule(time.Millisecond, func() { panic("boom") })
			env.Go("sleeper", func(p *Proc) { p.Sleep(2 * time.Millisecond) })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := NewEnv(1)
			tc.setup(env)
			got := func() (r any) {
				defer func() { r = recover() }()
				_ = env.Run()
				return nil
			}()
			env.Shutdown()
			if got != "boom" {
				t.Fatalf("Run recovered %v, want the proc's panic", got)
			}
		})
	}
}

// TestShutdownReleasesEveryCarrier runs the same mix of procs twice — parked
// daemons, procs that exit, procs that never start — and checks that
// Shutdown unwinds the parked ones, never runs the unstarted ones, and
// returns every carrier to the pool, so the second round creates no
// goroutine.
func TestShutdownReleasesEveryCarrier(t *testing.T) {
	round := func() (unwound int, started bool, live int) {
		env := NewEnv(1)
		ev := env.NewEvent()
		for i := 0; i < 3; i++ {
			env.Go("parked", func(p *Proc) {
				defer func() { unwound++ }()
				ev.Wait(p)
			}).SetDaemon(true)
		}
		for i := 0; i < 2; i++ {
			env.Go("exits", func(p *Proc) { p.Sleep(time.Millisecond) })
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			env.Go("never-started", func(p *Proc) { started = true })
		}
		live = runtime.NumGoroutine()
		env.Shutdown()
		if len(env.idle) != 0 {
			t.Fatalf("%d carriers left on the environment after Shutdown", len(env.idle))
		}
		return unwound, started, live
	}
	round() // fill the pool with this mix's carriers
	inPool, goroutines := pooled(), runtime.NumGoroutine()
	unwound, started, live := round()
	if started {
		t.Fatal("Shutdown ran a proc that was never dispatched")
	}
	if unwound != 3 {
		t.Fatalf("%d parked procs unwound, want 3", unwound)
	}
	// Goroutines of earlier tests may still be exiting, so the counts below
	// may fall but must not grow.
	if live > goroutines {
		t.Fatalf("second round ran on %d goroutines, want at most the %d the pooled carriers already had", live, goroutines)
	}
	if got := pooled(); got != inPool {
		t.Fatalf("pool holds %d carriers after the second round, want %d", got, inPool)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Fatalf("%d goroutines after the second round, want at most %d", got, goroutines)
	}
}

func TestShutdownStopsCarriersBeyondPoolCap(t *testing.T) {
	inPool, goroutines := pooled(), runtime.NumGoroutine()
	env := NewEnv(1)
	ev := env.NewEvent()
	for i := 0; i < maxPooled+3; i++ {
		env.Go("parked", func(p *Proc) { ev.Wait(p) }).SetDaemon(true)
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if got := pooled(); got != maxPooled {
		t.Fatalf("pool holds %d carriers, want the cap %d", got, maxPooled)
	}
	// The environment took every pooled carrier and made the rest; all but
	// the cap's worth were stopped.
	if got, want := runtime.NumGoroutine(), goroutines-inPool+maxPooled; got > want {
		t.Fatalf("%d goroutines after Shutdown, want at most %d", got, want)
	}
}

func TestCarrierReusedAfterExit(t *testing.T) {
	env := NewEnv(1)
	a := env.Go("a", func(p *Proc) { p.Sleep(time.Millisecond) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	ran := false
	b := env.Go("b", func(p *Proc) { ran = true })
	if b.c != a.c {
		t.Fatal("Go built a new carrier while an idle one was pooled")
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran || len(env.idle) != 1 {
		t.Fatalf("ran=%v idle=%d, want the reused carrier back on the idle list", ran, len(env.idle))
	}
	env.Shutdown()
}

func TestSpawnSteadyStateAllocs(t *testing.T) {
	env := NewEnv(1)
	warmHeap(t, env, 64)
	fn := func(p *Proc) { p.Yield() }
	env.Go("warm", fn)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		env.Go("spawn", fn)
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
	})
	env.Shutdown()
	if avg > 1 {
		t.Fatalf("Env.Go allocates %.2f/op with a pooled carrier, want at most 1 (the Proc)", avg)
	}
}

func TestDeadlockErrorNamesProcsByID(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	for i := 0; i < 2; i++ {
		env.Go("waiter", func(p *Proc) { ev.Wait(p) })
	}
	// A parked daemon (an idle pool worker, say) is not stuck: the report
	// must leave it out even though its name sorts first.
	env.Go("idle-daemon", func(p *Proc) {
		p.SetDaemon(true)
		env.NewEvent().Wait(p)
	})
	err := env.Run()
	env.Shutdown()
	if err == nil {
		t.Fatal("expected a deadlock error")
	}
	if !strings.Contains(err.Error(), "waiter#1 blocked on event; waiter#2 blocked on event") {
		t.Fatalf("deadlock report %q does not list both waiters by id, in id order", err)
	}
	if !strings.Contains(err.Error(), "2 live procs") || strings.Contains(err.Error(), "idle-daemon") {
		t.Fatalf("deadlock report %q counts or lists the parked daemon", err)
	}
}

package sim

import (
	"testing"
	"time"
)

// BenchmarkSimEventThroughput measures raw event-loop dispatch rate: one
// self-rescheduling callback per op. It must report 0 allocs/op.
func BenchmarkSimEventThroughput(b *testing.B) {
	env := NewEnv(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			env.Schedule(time.Microsecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	env.Schedule(0, tick)
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimProcSwitch measures process park/dispatch round-trips: one
// Proc.Sleep per op. It must report 0 allocs/op.
func BenchmarkSimProcSwitch(b *testing.B) {
	env := NewEnv(1)
	env.Go("switcher", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimProcHandoff measures the switch between two processes: ping
// and pong sleep in alternation, so every park hands the next dispatch to
// the other one. One op is one hand-off. It must report 0 allocs/op.
func BenchmarkSimProcHandoff(b *testing.B) {
	env := NewEnv(1)
	half := (b.N + 1) / 2
	loop := func(p *Proc) {
		for i := 0; i < half; i++ {
			p.Sleep(2 * time.Microsecond)
		}
	}
	env.Go("ping", loop)
	env.Go("pong", func(p *Proc) {
		p.Sleep(time.Microsecond)
		loop(p)
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimSemaphoreBarge measures the guarded wake-up: holder releases
// a width-1 semaphore and re-acquires it at once, so the waiter it signalled
// finds the slot taken. One op is one such cycle, in which the event loop
// re-queues the waiter without switching into it. It must report 0
// allocs/op.
func BenchmarkSimSemaphoreBarge(b *testing.B) {
	env := NewEnv(1)
	sem := env.NewSemaphore(1)
	env.Go("holder", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			sem.Acquire(p)
			p.Sleep(time.Microsecond)
			sem.Release()
		}
	})
	env.Go("waiter", func(p *Proc) {
		sem.Acquire(p)
		sem.Release()
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimSpawn measures a process's whole life on a pooled carrier:
// spawn, first dispatch and exit. One op is one short-lived process.
func BenchmarkSimSpawn(b *testing.B) {
	env := NewEnv(1)
	child := func(p *Proc) {}
	env.Go("spawner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			env.Go("child", child)
			p.Yield() // the child runs and exits, returning its carrier
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

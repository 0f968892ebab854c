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

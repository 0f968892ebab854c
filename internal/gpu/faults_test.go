package gpu

import (
	"errors"
	"testing"
	"time"

	"olympian/internal/faults"
	"olympian/internal/sim"
)

func TestInjectedKernelFaultMarksErr(t *testing.T) {
	env := sim.NewEnv(1)
	dev := New(env, noLaunch, env.Rand())
	dev.InjectFaults(faults.New(1, faults.Plan{KernelFailRate: 1}))
	st := &Stream{ID: 1}
	k := &Kernel{Owner: 1, Stream: st, Duration: time.Millisecond, Occupancy: 1}
	completed := false
	dev.Submit(k).Subscribe(func() { completed = true })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if !completed {
		t.Fatal("kernel never completed")
	}
	if !errors.Is(k.Err, faults.ErrKernelFault) {
		t.Fatalf("kernel err = %v, want ErrKernelFault", k.Err)
	}
	if dev.Stats().KernelFaults != 1 {
		t.Fatalf("device counted %d kernel faults, want 1", dev.Stats().KernelFaults)
	}
	// A failed kernel still occupied the device for its full duration.
	if got := st.Busy(); got != time.Millisecond {
		t.Fatalf("stream busy %v, want 1ms", got)
	}
}

func TestNoInjectorNoFaults(t *testing.T) {
	env := sim.NewEnv(1)
	dev := New(env, noLaunch, env.Rand())
	k := &Kernel{Owner: 1, Stream: &Stream{ID: 1}, Duration: time.Millisecond, Occupancy: 1}
	dev.Submit(k)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if k.Err != nil {
		t.Fatalf("unexpected kernel error %v", k.Err)
	}
}

func TestStallDelaysAdmissionNotResidents(t *testing.T) {
	// Run the same two-kernel sequence with and without an injected stall:
	// the stalled run must finish strictly later, and resident kernels must
	// keep executing through the stall window.
	run := func(plan faults.Plan) sim.Time {
		env := sim.NewEnv(1)
		dev := New(env, noLaunch, env.Rand())
		in := faults.New(1, plan)
		dev.InjectFaults(in)
		var finished sim.Time
		env.Go("client", func(p *sim.Proc) {
			st := &Stream{ID: 1}
			for i := 0; i < 4; i++ {
				k := &Kernel{Owner: 1, Stream: st, Duration: 500 * time.Microsecond, Occupancy: 1}
				dev.Submit(k)
				k.Done.Wait(p)
				if k.Err != nil {
					t.Errorf("kernel %d failed: %v", i, k.Err)
				}
			}
			finished = p.Now()
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		env.Shutdown()
		return finished
	}
	clean := run(faults.Plan{})
	// Stalls arrive every ~300us on average and hold admission 1ms each, so
	// the 2ms of serial kernel work must stretch noticeably.
	stalled := run(faults.Plan{StallEvery: 300 * time.Microsecond, StallDur: time.Millisecond})
	if stalled <= clean {
		t.Fatalf("stalled run (%v) not slower than clean run (%v)", stalled, clean)
	}
	if again := run(faults.Plan{StallEvery: 300 * time.Microsecond, StallDur: time.Millisecond}); again != stalled {
		t.Fatalf("stalled run not deterministic: %v vs %v", again, stalled)
	}
}

func TestStallObserverFiresAtStallOnset(t *testing.T) {
	env := sim.NewEnv(1)
	dev := New(env, noLaunch, env.Rand())
	in := faults.New(1, faults.Plan{StallEvery: 300 * time.Microsecond, StallDur: time.Millisecond})
	dev.InjectFaults(in)
	type stall struct {
		at, until sim.Time
	}
	var seen []stall
	dev.SetStallObserver(func(until sim.Time) {
		seen = append(seen, stall{at: env.Now(), until: until})
		if !dev.stalled() {
			t.Error("observer fired while device not stalled")
		}
	})
	env.Go("client", func(p *sim.Proc) {
		st := &Stream{ID: 1}
		for i := 0; i < 4; i++ {
			k := &Kernel{Owner: 1, Stream: st, Duration: 500 * time.Microsecond, Occupancy: 1}
			dev.Submit(k)
			k.Done.Wait(p)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if len(seen) == 0 {
		t.Fatal("observer never fired despite planned stalls")
	}
	if got := in.Counters().DeviceStalls; len(seen) != got {
		t.Fatalf("observer fired %d times, injector counted %d stalls", len(seen), got)
	}
	for _, s := range seen {
		if s.until <= s.at {
			t.Fatalf("stall at %v reports reopen time %v, want strictly later", s.at, s.until)
		}
	}
}

package gpu

import (
	"testing"
	"testing/quick"
	"time"

	"olympian/internal/sim"
)

// noLaunch is a spec without launch latency, for exact arithmetic in tests.
var noLaunch = Spec{Name: "test", ClockScale: 1.0, Capacity: 1.0, MemoryBytes: 1 << 30}

func TestSingleKernelRunsForItsDuration(t *testing.T) {
	env := sim.NewEnv(1)
	dev := New(env, noLaunch, env.Rand())
	var done sim.Time
	st := &Stream{ID: 1}
	env.Go("submit", func(p *sim.Proc) {
		ev := dev.Submit(&Kernel{Owner: 1, Stream: st, Duration: 5 * time.Millisecond, Occupancy: 1.0})
		ev.Wait(p)
		done = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if done != sim.Time(5*time.Millisecond) {
		t.Fatalf("kernel finished at %v, want 5ms", done)
	}
	if got := st.Busy(); got != 5*time.Millisecond {
		t.Fatalf("stream busy %v, want 5ms", got)
	}
}

func TestFullOccupancyKernelsSerialize(t *testing.T) {
	env := sim.NewEnv(1)
	dev := New(env, noLaunch, env.Rand())
	var finishes []sim.Time
	env.Go("submit", func(p *sim.Proc) {
		ev1 := dev.Submit(&Kernel{Owner: 1, Duration: 2 * time.Millisecond, Occupancy: 1.0})
		ev2 := dev.Submit(&Kernel{Owner: 2, Duration: 3 * time.Millisecond, Occupancy: 1.0})
		ev1.Wait(p)
		finishes = append(finishes, p.Now())
		ev2.Wait(p)
		finishes = append(finishes, p.Now())
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []sim.Time{sim.Time(2 * time.Millisecond), sim.Time(5 * time.Millisecond)}
	for i := range want {
		if finishes[i] != want[i] {
			t.Fatalf("finish[%d] = %v, want %v", i, finishes[i], want[i])
		}
	}
}

func TestSmallKernelsOverlap(t *testing.T) {
	env := sim.NewEnv(1)
	dev := New(env, noLaunch, env.Rand())
	wg := env.NewWaitGroup()
	var last sim.Time
	for i := 0; i < 4; i++ {
		wg.Add(1)
		env.Go("submit", func(p *sim.Proc) {
			ev := dev.Submit(&Kernel{Owner: 1, Duration: 4 * time.Millisecond, Occupancy: 0.25})
			ev.Wait(p)
			last = p.Now()
			wg.Done()
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if last != sim.Time(4*time.Millisecond) {
		t.Fatalf("four quarter-occupancy kernels should overlap fully; finished at %v", last)
	}
}

func TestHeadOfLineBlocking(t *testing.T) {
	env := sim.NewEnv(1)
	dev := New(env, noLaunch, env.Rand())
	var smallDone sim.Time
	env.Go("submit", func(p *sim.Proc) {
		// Half-occupancy kernel runs; full-occupancy kernel must wait for
		// the device to drain; the small kernel behind it is blocked even
		// though it would fit.
		dev.Submit(&Kernel{Owner: 1, Duration: 4 * time.Millisecond, Occupancy: 0.5})
		dev.Submit(&Kernel{Owner: 2, Duration: 2 * time.Millisecond, Occupancy: 1.0})
		ev := dev.Submit(&Kernel{Owner: 3, Duration: 1 * time.Millisecond, Occupancy: 0.1})
		ev.Wait(p)
		smallDone = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// small starts only after the 1.0-occupancy kernel finishes at 4+2=6ms.
	if smallDone != sim.Time(7*time.Millisecond) {
		t.Fatalf("small kernel finished at %v, want 7ms (head-of-line blocked)", smallDone)
	}
}

func TestOwnerBusyIsUnionOfIntervals(t *testing.T) {
	env := sim.NewEnv(1)
	dev := New(env, noLaunch, env.Rand())
	st := &Stream{ID: 1}
	env.Go("submit", func(p *sim.Proc) {
		// Two overlapping kernels on one stream: busy union is 3ms, not 4ms.
		dev.Submit(&Kernel{Owner: 1, Stream: st, Duration: 2 * time.Millisecond, Occupancy: 0.3})
		ev := dev.Submit(&Kernel{Owner: 1, Stream: st, Duration: 3 * time.Millisecond, Occupancy: 0.3})
		ev.Wait(p)
		// Idle gap, then another kernel.
		p.Sleep(2 * time.Millisecond)
		ev = dev.Submit(&Kernel{Owner: 1, Stream: st, Duration: 1 * time.Millisecond, Occupancy: 0.3})
		ev.Wait(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := st.Busy(); got != 4*time.Millisecond {
		t.Fatalf("stream busy %v, want 4ms (3ms union + 1ms)", got)
	}
	if got := dev.TotalBusy(); got != 4*time.Millisecond {
		t.Fatalf("total busy %v, want 4ms", got)
	}
}

func TestClockScaleSpeedsKernels(t *testing.T) {
	env := sim.NewEnv(1)
	dev := New(env, Spec{Name: "fast", ClockScale: 2.0, Capacity: 1.0}, env.Rand())
	var done sim.Time
	env.Go("submit", func(p *sim.Proc) {
		ev := dev.Submit(&Kernel{Owner: 1, Duration: 10 * time.Millisecond, Occupancy: 1.0})
		ev.Wait(p)
		done = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if done != sim.Time(5*time.Millisecond) {
		t.Fatalf("scaled kernel finished at %v, want 5ms", done)
	}
}

func TestLaunchLatencyAdds(t *testing.T) {
	env := sim.NewEnv(1)
	spec := noLaunch
	spec.LaunchLatency = time.Millisecond
	dev := New(env, spec, env.Rand())
	var done sim.Time
	env.Go("submit", func(p *sim.Proc) {
		ev := dev.Submit(&Kernel{Owner: 1, Duration: 2 * time.Millisecond, Occupancy: 1.0})
		ev.Wait(p)
		done = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if done != sim.Time(3*time.Millisecond) {
		t.Fatalf("kernel finished at %v, want 3ms", done)
	}
}

func TestMemoryAccounting(t *testing.T) {
	env := sim.NewEnv(1)
	dev := New(env, noLaunch, env.Rand())
	if err := dev.Alloc(1 << 29); err != nil {
		t.Fatal(err)
	}
	if err := dev.Alloc(1 << 29); err != nil {
		t.Fatal(err)
	}
	if err := dev.Alloc(1); err == nil {
		t.Fatal("expected out-of-memory error")
	}
	dev.Free(1 << 29)
	if err := dev.Alloc(1); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
	if got := dev.MemoryInUse(); got != (1<<29)+1 {
		t.Fatalf("memory in use %d", got)
	}
}

func TestActiveKernelsTracksResidency(t *testing.T) {
	env := sim.NewEnv(1)
	dev := New(env, noLaunch, env.Rand())
	st := &Stream{ID: 7}
	env.Go("submit", func(p *sim.Proc) {
		dev.Submit(&Kernel{Owner: 7, Stream: st, Duration: 2 * time.Millisecond, Occupancy: 0.5})
		dev.Submit(&Kernel{Owner: 7, Stream: st, Duration: 4 * time.Millisecond, Occupancy: 0.5})
		p.Sleep(time.Millisecond)
		if got := st.Active(); got != 2 {
			t.Errorf("active at 1ms = %d, want 2", got)
		}
		p.Sleep(2 * time.Millisecond)
		if got := st.Active(); got != 1 {
			t.Errorf("active at 3ms = %d, want 1", got)
		}
		p.Sleep(2 * time.Millisecond)
		if got := st.Active(); got != 0 {
			t.Errorf("active at 5ms = %d, want 0", got)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounters(t *testing.T) {
	env := sim.NewEnv(1)
	dev := New(env, noLaunch, env.Rand())
	env.Go("submit", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			ev := dev.Submit(&Kernel{Owner: 1, Duration: time.Millisecond, Occupancy: 1.0})
			ev.Wait(p)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	s := dev.Stats()
	if s.KernelsRun != 3 {
		t.Fatalf("kernels run %d, want 3", s.KernelsRun)
	}
	if s.TotalBusy != 3*time.Millisecond {
		t.Fatalf("total busy %v, want 3ms", s.TotalBusy)
	}
}

// Property: for any mix of full-occupancy kernels, total busy time equals
// the sum of scaled durations (work conservation, no overlap possible) and
// per-stream busy sums to total.
func TestPropertyWorkConservationFullOccupancy(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 40 {
			return true
		}
		env := sim.NewEnv(1)
		dev := New(env, noLaunch, env.Rand())
		var want time.Duration
		wg := env.NewWaitGroup()
		streams := [3]*Stream{{ID: 0}, {ID: 1}, {ID: 2}}
		for i, r := range raw {
			d := time.Duration(r%5000+1) * time.Microsecond
			want += d
			owner := i % 3
			wg.Add(1)
			env.Go("sub", func(p *sim.Proc) {
				ev := dev.Submit(&Kernel{Owner: owner, Stream: streams[owner], Duration: d, Occupancy: 1.0})
				ev.Wait(p)
				wg.Done()
			})
		}
		if err := env.Run(); err != nil {
			return false
		}
		if dev.TotalBusy() != want {
			return false
		}
		var perStream time.Duration
		for _, st := range streams {
			perStream += st.Busy()
		}
		return perStream == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: memory never goes negative or above capacity through any
// alloc/free sequence.
func TestPropertyMemoryBounds(t *testing.T) {
	prop := func(ops []int32) bool {
		env := sim.NewEnv(1)
		dev := New(env, Spec{Name: "m", ClockScale: 1, Capacity: 1, MemoryBytes: 1 << 20}, env.Rand())
		for _, op := range ops {
			n := int64(op)
			if n >= 0 {
				_ = dev.Alloc(n % (1 << 21)) // may fail; that's fine
			} else {
				dev.Free((-n) % (1 << 21))
			}
			if dev.MemoryInUse() < 0 || dev.MemoryInUse() > 1<<20 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamResetRebinds reuses one stream handle for a second client, as the
// serving layer recycles its batch records: the reset stream is unbound, has
// no accounting left, keeps its queue's array, and its next Submit ranks it
// after every stream bound meanwhile.
func TestStreamResetRebinds(t *testing.T) {
	env := sim.NewEnv(1)
	dev := New(env, noLaunch, env.Rand())
	st, other := &Stream{ID: 1}, &Stream{ID: 2}
	env.Go("submit", func(p *sim.Proc) {
		if err := dev.Exec(p, Kernel{Owner: 1, Stream: st, Duration: time.Millisecond, Occupancy: 1}); err != nil {
			t.Error(err)
		}
		if err := dev.Exec(p, Kernel{Owner: 2, Stream: other, Duration: time.Millisecond, Occupancy: 1}); err != nil {
			t.Error(err)
		}
		queue := cap(st.queue)
		st.Reset(3)
		if st.ID != 3 || st.dev != nil || st.count != 0 || st.Busy() != 0 || st.Active() != 0 {
			t.Errorf("reset stream %+v, want an unbound stream 3 with no accounting", *st)
		}
		if queue == 0 || cap(st.queue) != queue {
			t.Errorf("reset stream queue capacity %d, want the kept %d", cap(st.queue), queue)
		}
		if err := dev.Exec(p, Kernel{Owner: 3, Stream: st, Duration: time.Millisecond, Occupancy: 1}); err != nil {
			t.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if st.rank != 2 || other.rank != 1 || dev.nstreams != 3 {
		t.Fatalf("ranks %d and %d of %d streams, want the reset stream ranked 2 after the other's 1 of 3", st.rank, other.rank, dev.nstreams)
	}
	if st.count != 1 || st.Busy() != time.Millisecond {
		t.Fatalf("reset stream ran %d kernels for %v, want 1 for 1ms", st.count, st.Busy())
	}
}

// TestStreamResetPanicsWhenBusy checks that a stream with a queued or an
// executing kernel cannot be reset.
func TestStreamResetPanicsWhenBusy(t *testing.T) {
	mustPanic := func(what string, st *Stream) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Reset with %s did not panic", what)
			}
		}()
		st.Reset(9)
	}
	env := sim.NewEnv(1)
	dev := New(env, noLaunch, env.Rand())
	st := &Stream{ID: 1}
	env.Go("submit", func(p *sim.Proc) {
		first := dev.Submit(&Kernel{Owner: 1, Stream: st, Duration: time.Millisecond, Occupancy: 1})
		second := dev.Submit(&Kernel{Owner: 1, Stream: st, Duration: time.Millisecond, Occupancy: 1})
		mustPanic("a queued kernel", st)
		first.Wait(p)
		p.Sleep(time.Microsecond)
		mustPanic("an executing kernel", st)
		second.Wait(p)
		st.Reset(9)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

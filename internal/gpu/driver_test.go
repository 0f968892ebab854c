package gpu

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"olympian/internal/sim"
)

func TestSwitchBarrierDrainsThenHolds(t *testing.T) {
	env := sim.NewEnv(1)
	dev := New(env, noLaunch, env.Rand())
	var secondStart sim.Time
	env.Go("driver", func(p *sim.Proc) {
		// First kernel is running when the barrier is raised.
		dev.Submit(&Kernel{Owner: 1, Stream: &Stream{ID: 1}, Duration: 4 * time.Millisecond, Occupancy: 1})
		p.Sleep(time.Millisecond)
		dev.SwitchBarrier(500 * time.Microsecond)
		// Second kernel must wait for drain (at 4ms) plus the hold.
		ev := dev.Submit(&Kernel{Owner: 2, Stream: &Stream{ID: 2}, Duration: time.Millisecond, Occupancy: 1})
		ev.Wait(p)
		secondStart = p.Now() - sim.Time(time.Millisecond)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(4*time.Millisecond + 500*time.Microsecond)
	if secondStart != want {
		t.Fatalf("second kernel started at %v, want %v (drain + hold)", secondStart, want)
	}
}

func TestSwitchBarrierOnIdleDeviceJustHolds(t *testing.T) {
	env := sim.NewEnv(1)
	dev := New(env, noLaunch, env.Rand())
	var done sim.Time
	env.Go("driver", func(p *sim.Proc) {
		dev.SwitchBarrier(300 * time.Microsecond)
		ev := dev.Submit(&Kernel{Owner: 1, Stream: &Stream{ID: 1}, Duration: time.Millisecond, Occupancy: 1})
		ev.Wait(p)
		done = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if done != sim.Time(1300*time.Microsecond) {
		t.Fatalf("kernel done at %v, want 1.3ms", done)
	}
}

func TestBypassWindowLetsSmallKernelsFlow(t *testing.T) {
	env := sim.NewEnv(1)
	dev := New(env, noLaunch, env.Rand())
	var smallDone sim.Time
	env.Go("driver", func(p *sim.Proc) {
		// Big kernel occupies the device; another big kernel queues behind
		// it on stream 2; a small kernel on stream 3 can bypass the blocked
		// big head while the bypass window is open.
		dev.Submit(&Kernel{Owner: 1, Stream: &Stream{ID: 1}, Duration: 2 * time.Millisecond, Occupancy: 0.6})
		dev.Submit(&Kernel{Owner: 2, Stream: &Stream{ID: 2}, Duration: 2 * time.Millisecond, Occupancy: 1.0})
		ev := dev.Submit(&Kernel{Owner: 3, Stream: &Stream{ID: 3}, Duration: 100 * time.Microsecond, Occupancy: 0.2})
		ev.Wait(p)
		smallDone = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if smallDone != sim.Time(100*time.Microsecond) {
		t.Fatalf("small kernel done at %v, want 100us (bypassed the blocked head)", smallDone)
	}
}

func TestAgeBarrierEngagesAfterBypassWindow(t *testing.T) {
	env := sim.NewEnv(1)
	dev := New(env, noLaunch, env.Rand())
	var lateDone sim.Time
	env.Go("driver", func(p *sim.Proc) {
		dev.Submit(&Kernel{Owner: 1, Stream: &Stream{ID: 1}, Duration: 2 * time.Millisecond, Occupancy: 0.6})
		dev.Submit(&Kernel{Owner: 2, Stream: &Stream{ID: 2}, Duration: time.Millisecond, Occupancy: 1.0})
		// Submit a small kernel well after the bypass window for the
		// blocked stream-2 head has expired: admission is barred until the
		// device drains at 2ms, even though the small kernel would fit
		// beside the running 0.6-occupancy kernel.
		p.Sleep(maxBypassWait + 100*time.Microsecond)
		ev := dev.Submit(&Kernel{Owner: 3, Stream: &Stream{ID: 3}, Duration: 100 * time.Microsecond, Occupancy: 0.2})
		ev.Wait(p)
		lateDone = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// The barrier guarantees no admission before the drain at 2ms; once
	// the device is empty both heads are eligible and the pick is
	// weighted-random (the small kernel wins with this seed). What must
	// never happen is the small kernel running inside (0.3ms, 2ms).
	if lateDone < sim.Time(2100*time.Microsecond) {
		t.Fatalf("late small kernel done at %v: bypassed a barred head", lateDone)
	}
}

func TestStreamBiasDeterministicPerSeed(t *testing.T) {
	weights := func(seed int64) []float64 {
		env := sim.NewEnv(seed)
		dev := New(env, Spec{Name: "b", ClockScale: 1, Capacity: 1, StreamBias: 0.3}, env.Rand())
		out := make([]float64, 5)
		env.Go("submit", func(p *sim.Proc) {
			for s := range out {
				st := &Stream{ID: s}
				ev := dev.Submit(&Kernel{Owner: s, Stream: st, Duration: time.Microsecond, Occupancy: 1})
				ev.Wait(p)
				out[s] = st.weight
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b, c := weights(1), weights(1), weights(2)
	same12, same13 := true, true
	for i := range a {
		if a[i] != b[i] {
			same12 = false
		}
		if a[i] != c[i] {
			same13 = false
		}
	}
	if !same12 {
		t.Fatal("same seed produced different stream weights")
	}
	if same13 {
		t.Fatal("different seeds produced identical stream weights")
	}
	if w := weights(1); w[0] == 1 && w[1] == 1 && w[2] == 1 {
		t.Fatal("bias did not perturb weights")
	}
}

func TestStreamBiasSkewsServiceShares(t *testing.T) {
	// Two streams of equal full-occupancy work: with strong bias, their
	// kernel-completion shares diverge in proportion to the weights.
	env := sim.NewEnv(3)
	dev := New(env, Spec{Name: "b", ClockScale: 1, Capacity: 1, StreamBias: 0.8}, env.Rand())
	served := map[int]int{}
	streams := [2]*Stream{{ID: 0}, {ID: 1}}
	for s, st := range streams {
		// Keep two kernels in flight per stream, as the executor's
		// per-job pipeline does, so the driver always has a choice.
		sem := env.NewSemaphore(2)
		for w := 0; w < 2; w++ {
			env.Go("stream", func(p *sim.Proc) {
				for i := 0; i < 100; i++ {
					sem.Acquire(p)
					ev := dev.Submit(&Kernel{Owner: s, Stream: st, Duration: 50 * time.Microsecond, Occupancy: 1})
					ev.Wait(p)
					sem.Release()
					served[s]++
				}
			})
		}
	}
	// Run only half the total work so shares reflect contention.
	if err := env.RunUntil(sim.Time(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	w0, w1 := streams[0].weight, streams[1].weight
	shareWant := w0 / (w0 + w1)
	shareGot := float64(served[0]) / float64(served[0]+served[1])
	if math.Abs(shareGot-shareWant) > 0.10 {
		t.Fatalf("stream 0 served %.2f of kernels, want ~%.2f (weights %.2f/%.2f)",
			shareGot, shareWant, w0, w1)
	}
	env.Shutdown()
}

func TestOccupancyTime(t *testing.T) {
	env := sim.NewEnv(1)
	dev := New(env, noLaunch, env.Rand())
	env.Go("submit", func(p *sim.Proc) {
		ev := dev.Submit(&Kernel{Owner: 1, Stream: &Stream{ID: 1}, Duration: 4 * time.Millisecond, Occupancy: 0.5})
		ev.Wait(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := dev.OccupancyTime(); got != 2*time.Millisecond {
		t.Fatalf("occupancy time %v, want 2ms (0.5 x 4ms)", got)
	}
}

// Property: under any random kernel mix, accounting invariants hold:
// occupancy-time <= total busy <= elapsed, and per-stream busy sums to at
// least the global busy union.
func TestPropertyAccountingInvariants(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 30 {
			return true
		}
		env := sim.NewEnv(2)
		dev := New(env, noLaunch, env.Rand())
		wg := env.NewWaitGroup()
		streams := [3]*Stream{{ID: 0}, {ID: 1}, {ID: 2}}
		for i, r := range raw {
			d := time.Duration(r%3000+1) * time.Microsecond
			occ := float64(r%10+1) / 10
			owner := i % 3
			wg.Add(1)
			env.Go("k", func(p *sim.Proc) {
				ev := dev.Submit(&Kernel{Owner: owner, Stream: streams[owner], Duration: d, Occupancy: occ})
				ev.Wait(p)
				wg.Done()
			})
		}
		if err := env.Run(); err != nil {
			return false
		}
		elapsed := time.Duration(env.Now())
		busy := dev.TotalBusy()
		occT := dev.OccupancyTime()
		if occT > busy+time.Nanosecond || busy > elapsed+time.Nanosecond {
			return false
		}
		var streamSum time.Duration
		for _, st := range streams {
			streamSum += st.Busy()
		}
		// Stream busy unions can overlap each other but never exceed the
		// per-stream serialized total; their sum is at least the global
		// union and at most 3x elapsed.
		return streamSum >= busy && streamSum <= 3*elapsed
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

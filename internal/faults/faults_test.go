package faults

import (
	"testing"
	"time"

	"olympian/internal/sim"
)

func drawAll(in *Injector, n int) (kernels, aborts []bool, stalls []time.Duration, rates []float64) {
	for i := 0; i < n; i++ {
		kernels = append(kernels, in.KernelFails())
		aborts = append(aborts, in.JobAborts())
		if wait, _, ok := in.NextStall(); ok {
			stalls = append(stalls, wait)
		}
		rates = append(rates, in.RateFactor(sim.Time(i)*sim.Time(time.Millisecond)))
	}
	return
}

func TestSameSeedSameFaults(t *testing.T) {
	plan := Plan{
		KernelFailRate: 0.1,
		StallEvery:     5 * time.Millisecond,
		StallDur:       time.Millisecond,
		AbortRate:      0.05,
		BurstEvery:     20 * time.Millisecond,
		BurstDur:       4 * time.Millisecond,
		BurstFactor:    4,
	}
	k1, a1, s1, r1 := drawAll(New(42, plan), 500)
	k2, a2, s2, r2 := drawAll(New(42, plan), 500)
	for i := range k1 {
		if k1[i] != k2[i] || a1[i] != a2[i] || r1[i] != r2[i] {
			t.Fatalf("draw %d diverged between identically seeded injectors", i)
		}
	}
	if len(s1) != len(s2) {
		t.Fatalf("stall counts diverged: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("stall %d diverged: %v vs %v", i, s1[i], s2[i])
		}
	}
	c1, c2 := New(42, plan), New(42, plan)
	drawAll(c1, 500)
	drawAll(c2, 500)
	if c1.Counters() != c2.Counters() {
		t.Fatalf("counters diverged: %+v vs %+v", c1.Counters(), c2.Counters())
	}
}

func TestStreamsAreIndependent(t *testing.T) {
	// Disabling one fault class must not shift another class's draws.
	full := Plan{KernelFailRate: 0.1, AbortRate: 0.05}
	abortOnly := Plan{AbortRate: 0.05}
	inFull, inAbort := New(7, full), New(7, abortOnly)
	for i := 0; i < 1000; i++ {
		inFull.KernelFails()
		inAbort.KernelFails()
		if inFull.JobAborts() != inAbort.JobAborts() {
			t.Fatalf("abort draw %d depends on kernel-fault plan", i)
		}
	}
}

func TestZeroPlanInjectsNothing(t *testing.T) {
	in := New(1, Plan{})
	if in.plan.Enabled() {
		t.Fatal("zero plan reports enabled")
	}
	for i := 0; i < 100; i++ {
		if in.KernelFails() || in.JobAborts() {
			t.Fatal("zero plan injected a fault")
		}
		if _, _, ok := in.NextStall(); ok {
			t.Fatal("zero plan injected a stall")
		}
		if f := in.RateFactor(sim.Time(i)); f != 1 {
			t.Fatalf("zero plan rate factor %v", f)
		}
	}
	if c := in.Counters(); c != (Counters{}) {
		t.Fatalf("zero plan counted faults: %+v", c)
	}
	var nilInj *Injector
	if nilInj.KernelFails() || nilInj.JobAborts() {
		t.Fatal("nil injector injected a fault")
	}
	if f := nilInj.RateFactor(0); f != 1 {
		t.Fatalf("nil injector rate factor %v", f)
	}
}

func TestRateFactorWindows(t *testing.T) {
	plan := Plan{BurstEvery: 10 * time.Millisecond, BurstDur: 2 * time.Millisecond, BurstFactor: 3}
	in := New(11, plan)
	sawBurst, sawBase := false, false
	for tms := 0; tms < 200; tms++ {
		f := in.RateFactor(sim.Time(tms) * sim.Time(time.Millisecond))
		switch f {
		case 3:
			sawBurst = true
		case 1:
			sawBase = true
		default:
			t.Fatalf("unexpected rate factor %v", f)
		}
	}
	if !sawBurst || !sawBase {
		t.Fatalf("expected both burst and base windows (burst=%v base=%v)", sawBurst, sawBase)
	}
	if in.Counters().Bursts == 0 {
		t.Fatal("no bursts counted")
	}
}

func TestFaultRatesRoughlyMatchPlan(t *testing.T) {
	plan := Plan{KernelFailRate: 0.2, AbortRate: 0.1}
	in := New(3, plan)
	kf, ab := 0, 0
	const n = 20000
	for i := 0; i < n; i++ {
		if in.KernelFails() {
			kf++
		}
		if in.JobAborts() {
			ab++
		}
	}
	if f := float64(kf) / n; f < 0.17 || f > 0.23 {
		t.Fatalf("kernel fault rate %v, want ~0.2", f)
	}
	if f := float64(ab) / n; f < 0.08 || f > 0.12 {
		t.Fatalf("abort rate %v, want ~0.1", f)
	}
	c := in.Counters()
	if c.KernelFaults != kf || c.JobAborts != ab {
		t.Fatalf("counters %+v disagree with draws (%d, %d)", c, kf, ab)
	}
}

func TestRetryJitterStreamDeterministicAndNilSafe(t *testing.T) {
	var nilInj *Injector
	if got := nilInj.RetryJitter(); got != 0.5 {
		t.Fatalf("nil injector jitter = %v, want 0.5 (plain exponential backoff)", got)
	}
	a := New(11, Plan{KernelFailRate: 0.5})
	b := New(11, Plan{KernelFailRate: 0.5})
	for i := 0; i < 100; i++ {
		ja, jb := a.RetryJitter(), b.RetryJitter()
		if ja != jb {
			t.Fatalf("same-seed retry jitter diverged at draw %d: %v vs %v", i, ja, jb)
		}
		if ja < 0 || ja >= 1 {
			t.Fatalf("jitter draw %d = %v outside [0,1)", i, ja)
		}
	}
	// Drawing retry jitter must not perturb the other fault streams.
	c := New(11, Plan{KernelFailRate: 0.5})
	d := New(11, Plan{KernelFailRate: 0.5})
	for i := 0; i < 50; i++ {
		c.RetryJitter()
	}
	for i := 0; i < 50; i++ {
		if c.KernelFails() != d.KernelFails() {
			t.Fatalf("retry draws perturbed the kernel stream at draw %d", i)
		}
	}
}

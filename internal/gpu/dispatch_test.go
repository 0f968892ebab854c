package gpu

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"olympian/internal/faults"
	"olympian/internal/obs"
	"olympian/internal/sim"
)

// dispatchTranscript runs a mixed-occupancy scenario and returns every
// dispatch as "owner/stream@ns", read from the h2d spans (one opens at each
// dispatch). The scenario covers what the driver's stream bookkeeping must
// get right: 60 one-shot streams opened by a batcher (a fresh stream per
// batch, as the serving layer does), three re-used session streams
// interleaved with them, a gang-switch barrier, injected stalls, and a crash
// followed by a revive.
func dispatchTranscript(t *testing.T) string {
	t.Helper()
	env := sim.NewEnv(7)
	dev := New(env, Spec{Name: "pin", ClockScale: 1, Capacity: 1, LaunchLatency: 3 * time.Microsecond, StreamBias: 0.5})
	rec := obs.NewRecorder()
	rec.Bind(env, "pin")
	dev.Observe(rec, 0)
	dev.InjectFaults(faults.New(7, faults.Plan{
		StallEvery: 400 * time.Microsecond,
		StallDur:   90 * time.Microsecond,
		Crashes:    []faults.CrashEvent{{At: 1600 * time.Microsecond, Recovery: 80 * time.Microsecond}},
	}))
	dev.SetCrashObserver(func(recovery time.Duration) {
		env.Schedule(recovery, func() { dev.Revive(40 * time.Microsecond) })
	})
	occ := []float64{0.25, 0.5, 1, 0.4, 0.1, 0.75}
	for s := 1; s <= 3; s++ {
		env.Go("session", func(p *sim.Proc) {
			for i := 0; i < 25; i++ {
				k := &Kernel{
					Owner:     s,
					Stream:    s,
					Duration:  time.Duration(20+10*((s+i)%5)) * time.Microsecond,
					Occupancy: occ[(s*7+i)%len(occ)],
				}
				dev.Submit(k).Wait(p)
				if errors.Is(k.Err, faults.ErrDeviceCrashed) {
					p.Sleep(50 * time.Microsecond) // wait out the restart
				}
			}
		})
	}
	env.Go("batcher", func(p *sim.Proc) {
		for i := 0; i < 72; i++ {
			if i == 60 {
				p.Sleep(time.Millisecond) // past the crash and the revive
			}
			dev.Submit(&Kernel{
				Owner:     100 + i,
				Stream:    100 + i,
				Duration:  time.Duration(10+5*(i%4)) * time.Microsecond,
				Occupancy: occ[i%len(occ)],
			})
			if i == 20 {
				dev.SwitchBarrier(60 * time.Microsecond)
			}
			if i%3 == 2 {
				p.Sleep(35 * time.Microsecond)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	st := dev.Stats()
	if st.Crashes != 1 || st.Revives != 1 {
		t.Fatalf("scenario saw %d crashes and %d revives, want 1 and 1", st.Crashes, st.Revives)
	}
	var stalls int
	for _, s := range rec.Spans() {
		if s.Name == "stall" {
			stalls++
		}
	}
	if stalls == 0 {
		t.Fatal("scenario saw no stall")
	}
	var b strings.Builder
	n := 0
	for _, s := range rec.Spans() {
		if s.Name != "h2d" {
			continue
		}
		switch {
		case n > 0 && n%8 == 0:
			b.WriteByte('\n')
		case n > 0:
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d/%d@%d", s.Req, s.Arg, int64(s.Start))
		n++
	}
	if n != st.KernelsRun {
		t.Fatalf("transcript has %d dispatches, device ran %d kernels", n, st.KernelsRun)
	}
	return b.String()
}

// goldenTranscript pins the dispatch order, stream by stream and nanosecond
// by nanosecond: the weighted pick draws from the same random source in the
// same candidate order, so any change to the stream bookkeeping that alters
// candidate order or the set of candidates shows up here.
const goldenTranscript = `1/1@0 3/3@0 100/100@33000 104/104@35000 103/103@46000 101/101@53000 3/3@53000 106/106@71000
107/107@74000 105/105@102000 110/110@105000 111/111@120000 112/112@140000 113/113@148000 109/109@153000 1/1@171000
122/122@274000 126/126@297000 127/127@320000 118/118@348000 114/114@371000 121/121@394000 128/128@412000 136/136@425000
125/125@438000 139/139@456000 102/102@484000 120/120@507000 131/131@520000 3/3@548000 2/2@571000 119/119@614000
134/134@642000 157/157@665000 143/143@766680 158/158@794680 152/152@817680 135/135@965028 115/115@993028 151/151@1021028
116/116@1137168 153/153@1150168 124/124@1168168 155/155@1181168 3/3@1209168 159/159@1242168 132/132@1270168 154/154@1283168
144/144@1306168 138/138@1319168 147/147@1342168 137/137@1370168 3/3@1388168 146/146@1431168 3/3@1454168 117/117@1507168
141/141@1525168 1/1@1543168 163/163@1735000 164/164@1735000 1/1@1750000 2/2@1763000 3/3@1763000 167/167@1793000
166/166@1796000 170/170@1806000 169/169@1819000 3/3@1821000 2/2@1925388 171/171@1968388 168/168@1996388 3/3@2009388
165/165@2072388 2/2@2090388 1/1@2143388 3/3@2196388 2/2@2196388 1/1@2219388 3/3@2219388 2/2@2259388
3/3@2282388 1/1@2282388 2/2@2325388 3/3@2325388 1/1@2358388 2/2@2378388 3/3@2391388 1/1@2391388
2/2@2434388 1/1@2454388 2/2@2507388 3/3@2645159 1/1@2668159 2/2@2731159 3/3@2731159 1/1@2754159
2/2@2754159 3/3@2764159 1/1@2777159 2/2@2787159 3/3@2830159 2/2@2830159 1/1@2883159 3/3@2883159
2/2@2926159 1/1@2926159 3/3@2979159 1/1@2989159 3/3@3052159 2/2@3085159 3/3@3108159 2/2@3108159
2/2@3141159 1/1@3184159 2/2@3207159 1/1@3260159 2/2@3260159 1/1@3293159 2/2@3323159 1/1@3346159
2/2@3399159 1/1@3432159 1/1@3495159`

func TestDispatchTranscriptPinned(t *testing.T) {
	got := dispatchTranscript(t)
	if got != goldenTranscript {
		t.Fatalf("dispatch transcript changed:\n%s", got)
	}
}

// TestExecAfterManyStreamsAllocFree opens 10,000 one-kernel streams one
// after another, as a batcher that opens a stream per batch does, and then
// checks that a steady-state Exec allocates nothing: dispatch keeps no
// per-stream-ever-seen work on its path.
func TestExecAfterManyStreamsAllocFree(t *testing.T) {
	env := sim.NewEnv(1)
	dev := New(env, Spec{Name: "many", ClockScale: 1, Capacity: 1, LaunchLatency: time.Microsecond, StreamBias: 0.2})
	const streams = 10000
	var avg float64
	env.Go("batcher", func(p *sim.Proc) {
		for s := 0; s < streams; s++ {
			if err := dev.Exec(p, Kernel{Owner: 1, Stream: s, Duration: time.Microsecond, Occupancy: 0.5}); err != nil {
				t.Errorf("stream %d: %v", s, err)
				return
			}
		}
		k := Kernel{Owner: 1, Stream: streams / 2, Duration: time.Microsecond, Occupancy: 0.5}
		avg = testing.AllocsPerRun(1000, func() {
			if err := dev.Exec(p, k); err != nil {
				t.Error(err)
			}
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if avg > 0 {
		t.Fatalf("steady-state Exec allocates %.2f/op after %d streams, want 0", avg, streams)
	}
	if got, want := dev.Stats().KernelsRun, streams+1001; got != want {
		t.Fatalf("ran %d kernels, want %d", got, want)
	}
	if len(dev.streams) != streams || len(dev.busy) != 0 || dev.queued != 0 {
		t.Fatalf("bookkeeping: %d streams seen (want %d), %d busy, %d queued",
			len(dev.streams), streams, len(dev.busy), dev.queued)
	}
}

// TestCrashDuringRecycledLaunchEndsH2DSpan crashes the device while a
// recycled kernel is in its launch (H2D) phase. The crash must end that
// use's h2d span and leave the previous use's kernel span alone: the
// recycled Kernel still carries the old span handle until dispatch clears
// it.
func TestCrashDuringRecycledLaunchEndsH2DSpan(t *testing.T) {
	env := sim.NewEnv(1)
	spec := noLaunch
	spec.LaunchLatency = 10 * time.Microsecond
	dev := New(env, spec)
	rec := obs.NewRecorder()
	rec.Bind(env, "recycle")
	dev.Observe(rec, 0)
	env.Go("client", func(p *sim.Proc) {
		if err := dev.Exec(p, Kernel{Owner: 1, Stream: 1, Duration: 100 * time.Microsecond, Occupancy: 1}); err != nil {
			t.Errorf("first use: %v", err)
		}
		if len(dev.free) != 1 {
			t.Errorf("free list holds %d kernels after a clean run, want 1", len(dev.free))
		}
		env.Schedule(5*time.Microsecond, func() { dev.crash(0) })
		if err := dev.Exec(p, Kernel{Owner: 2, Stream: 1, Duration: 100 * time.Microsecond, Occupancy: 1}); !errors.Is(err, faults.ErrDeviceCrashed) {
			t.Errorf("second use: err %v, want ErrDeviceCrashed", err)
		}
		if len(dev.free) != 0 {
			t.Errorf("crashed kernel went back to the free list")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	type want struct {
		name       string
		owner      int32
		start, end time.Duration
	}
	wants := []want{
		{"h2d", 1, 0, 10 * time.Microsecond},
		{"kernel", 1, 10 * time.Microsecond, 110 * time.Microsecond},
		{"h2d", 2, 110 * time.Microsecond, 115 * time.Microsecond},
	}
	var got []want
	for _, s := range rec.Spans() {
		got = append(got, want{s.Name, s.Req, time.Duration(s.Start), time.Duration(s.End)})
	}
	if fmt.Sprint(got) != fmt.Sprint(wants) {
		t.Fatalf("spans\n got %v\nwant %v", got, wants)
	}
}

// TestCrashReviveExecCountsExact drives two sessions through two crashes,
// each followed by a revive, with the device's kernels recycled throughout.
// The crashes land while both sessions' kernels are resident (one in the
// execution phase, one in the launch phase), so their timers are still in
// the event heap when the sessions resume. Every count must come out exact,
// and every successful Exec must take exactly launch + duration: a crashed
// kernel reused too early would be finished again by its stale timer.
func TestCrashReviveExecCountsExact(t *testing.T) {
	const (
		launch   = 10 * time.Microsecond
		dur      = 100 * time.Microsecond
		perProc  = 10
		recovery = 20 * time.Microsecond
		warmup   = 30 * time.Microsecond
	)
	env := sim.NewEnv(1)
	spec := noLaunch
	spec.LaunchLatency = launch
	dev := New(env, spec)
	dev.InjectFaults(faults.New(1, faults.Plan{Crashes: []faults.CrashEvent{
		{At: 250 * time.Microsecond, Recovery: recovery}, // execution phase
		{At: 635 * time.Microsecond, Recovery: recovery}, // launch phase
	}}))
	dev.SetCrashObserver(func(rec time.Duration) {
		env.Schedule(rec, func() { dev.Revive(warmup) })
	})
	var ok, crashed [3]int
	for s := 1; s <= 2; s++ {
		env.Go("session", func(p *sim.Proc) {
			for ok[s] < perProc {
				start := p.Now()
				err := dev.Exec(p, Kernel{Owner: s, Stream: s, Duration: dur, Occupancy: 0.5})
				switch {
				case err == nil:
					if took := p.Now().Sub(start); took != launch+dur {
						t.Errorf("session %d: kernel took %v, want %v", s, took, launch+dur)
					}
					ok[s]++
				case !errors.Is(err, faults.ErrDeviceCrashed):
					t.Errorf("session %d: %v", s, err)
					return
				case p.Now() > start:
					crashed[s]++ // failed while dispatched
				default:
					p.Sleep(10 * time.Microsecond) // dead device: fail fast, retry later
				}
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	st := dev.Stats()
	if st.Crashes != 2 || st.Revives != 2 {
		t.Fatalf("%d crashes and %d revives, want 2 and 2", st.Crashes, st.Revives)
	}
	for s := 1; s <= 2; s++ {
		if ok[s] != perProc || crashed[s] != 2 {
			t.Errorf("session %d: %d ok and %d crashed mid-kernel, want %d and 2", s, ok[s], crashed[s], perProc)
		}
		if got := dev.OwnerKernels(s); got != perProc+2 {
			t.Errorf("owner %d dispatched %d kernels, want %d", s, got, perProc+2)
		}
	}
	if want := 2 * (perProc + 2); st.KernelsRun != want {
		t.Errorf("KernelsRun %d, want %d", st.KernelsRun, want)
	}
	if dev.inUse != 0 || dev.active != 0 || dev.outstanding != 0 || dev.queued != 0 ||
		len(dev.resident) != 0 || len(dev.busy) != 0 {
		t.Errorf("device not quiescent: inUse %v, active %d, outstanding %d, queued %d, resident %d, busy %d",
			dev.inUse, dev.active, dev.outstanding, dev.queued, len(dev.resident), len(dev.busy))
	}
}

// BenchmarkKernelDispatch measures steady-state Exec on one stream: submit,
// launch, execute, complete and recycle. It must report 0 allocs/op.
func BenchmarkKernelDispatch(b *testing.B) {
	env := sim.NewEnv(1)
	dev := New(env, Spec{Name: "bench", ClockScale: 1, Capacity: 1})
	env.Go("submitter", func(p *sim.Proc) {
		k := Kernel{Owner: 1, Stream: 1, Duration: time.Microsecond, Occupancy: 1}
		if err := dev.Exec(p, k); err != nil { // first use builds the kernel
			b.Error(err)
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := dev.Exec(p, k); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

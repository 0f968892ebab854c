package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// firing is one callback run: which one, and when.
type firing struct {
	label int
	at    Time
}

// trainScenario is one seeded workload around an arrival train: the train's
// offsets (non-decreasing, with deliberate ties), competing events queued
// before the train, and a seed for the competitors the callbacks spawn while
// the run is under way.
type trainScenario struct {
	offsets []Duration
	before  []Duration
	seed    int64
}

func newTrainScenario(rng *rand.Rand) trainScenario {
	// A coarse grid makes ties among the train, the competitors queued
	// before it and the competitors spawned during the run common.
	grid := func() Duration { return Duration(rng.Intn(6)) * time.Microsecond }
	sc := trainScenario{seed: rng.Int63()}
	at := Duration(0)
	for i := 1 + rng.Intn(40); i > 0; i-- {
		if rng.Intn(3) > 0 { // one gap in three is zero
			at += grid()
		}
		sc.offsets = append(sc.offsets, at)
	}
	for i := rng.Intn(8); i > 0; i-- {
		sc.before = append(sc.before, 2*grid())
	}
	return sc
}

// run plays the scenario with the train scheduled by schedule and returns
// the firing log. Every callback may spawn a competitor at a grid offset;
// the competitor labels are negative, the train's are its indices. check,
// when set, runs at every firing.
func (sc trainScenario) run(schedule func(env *Env, fire func(i int)), check func(env *Env)) []firing {
	env := NewEnv(1)
	rng := rand.New(rand.NewSource(sc.seed))
	var log []firing
	var compete func(label int) func()
	compete = func(label int) func() {
		return func() {
			log = append(log, firing{label, env.Now()})
			if check != nil {
				check(env)
			}
			if rng.Intn(3) == 0 && label > -1000 {
				env.Schedule(Duration(rng.Intn(4))*time.Microsecond, compete(label-100))
			}
		}
	}
	env.Schedule(0, compete(-1)) // queued before the train, at its first instant
	for i, d := range sc.before {
		env.Schedule(d, compete(-2-i))
	}
	schedule(env, func(i int) {
		log = append(log, firing{i, env.Now()})
		if check != nil {
			check(env)
		}
		if rng.Intn(2) == 0 {
			env.Schedule(Duration(rng.Intn(3))*time.Microsecond, compete(-10-i))
		}
	})
	if err := env.Run(); err != nil {
		panic(err)
	}
	return log
}

// TestPropertyScheduleTrainMatchesBackToBackSchedule: a train orders its
// callbacks among themselves and against every other event, ties included,
// exactly as n Schedule calls made at the same instant would, while never
// holding more than one of its callbacks in the queue.
func TestPropertyScheduleTrainMatchesBackToBackSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		sc := newTrainScenario(rng)
		want := sc.run(func(env *Env, fire func(int)) {
			for i, d := range sc.offsets {
				i := i
				env.Schedule(d, func() { fire(i) })
			}
		}, nil)

		var lo, hi uint64 // the train's reserved sequence band
		maxPending := 0
		got := sc.run(func(env *Env, fire func(int)) {
			i := -1
			lo, hi = env.seq+1, env.seq+uint64(len(sc.offsets))
			env.ScheduleTrain(len(sc.offsets), func() Duration {
				i++
				return sc.offsets[i]
			}, func() { fire(i) })
		}, func(env *Env) {
			pending := 0
			for _, ev := range env.events {
				if ev.seq >= lo && ev.seq <= hi {
					pending++
				}
			}
			maxPending = max(maxPending, pending)
		})
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (offsets %v): train fired\n%v\nwant\n%v", trial, sc.offsets, got, want)
		}
		if maxPending > 1 {
			t.Fatalf("trial %d: %d train callbacks pending at once, want at most 1", trial, maxPending)
		}
	}
}

// TestScheduleTrainClampsAndSkips: an offset below its predecessor fires at
// the predecessor's time, and an empty train pulls nothing.
func TestScheduleTrainClampsAndSkips(t *testing.T) {
	env := NewEnv(1)
	env.ScheduleTrain(0, func() Duration { panic("pulled an empty train") }, func() {})
	offsets := []Duration{5, 3, -1, 9}
	var at []Time
	i := -1
	env.ScheduleTrain(len(offsets), func() Duration { i++; return offsets[i] }, func() { at = append(at, env.Now()) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{5, 5, 5, 9}; !slices.Equal(at, want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
}

// TestScheduleTrainAllocsIndependentOfLength: a train costs a fixed number
// of allocations however many callbacks it fires.
func TestScheduleTrainAllocsIndependentOfLength(t *testing.T) {
	allocs := func(n int) float64 {
		env := NewEnv(1)
		warmHeap(t, env, 64)
		var d Duration
		next := func() Duration { d += time.Microsecond; return d }
		fire := func() {}
		return testing.AllocsPerRun(20, func() {
			env.ScheduleTrain(n, next, fire)
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(4), allocs(4096)
	if short > 2 || long > short {
		t.Fatalf("ScheduleTrain allocates %.1f for 4 callbacks and %.1f for 4096, want at most 2 for both", short, long)
	}
}

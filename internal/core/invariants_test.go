package core

import (
	"testing"
	"time"
)

// Invariant tests: structural properties that must hold on every run.

func TestRecordsWellFormed(t *testing.T) {
	q := 300 * time.Microsecond
	h := newHarness(t, 1, Config{Quantum: q})
	g := chainGraph(t, "m", 150, 70*time.Microsecond)
	h.sched.SetProfile(g, uniformProfile(g, q))
	h.run(t, []clientSpec{{graph: g, batches: 2}, {graph: g, batches: 2}, {graph: g}})
	recs := h.records()
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	prevStart := recs[0].Start
	for i, r := range recs {
		if r.End < r.Start {
			t.Fatalf("record %d: End %v before Start %v", i, r.End, r.Start)
		}
		if r.Start < prevStart {
			t.Fatalf("record %d: starts before its predecessor", i)
		}
		prevStart = r.Start
		if r.GPUDuration < 0 {
			t.Fatalf("record %d: negative GPU duration", i)
		}
		// ActiveJobs counts registered jobs when the interval closed; a
		// departing job's final record may report 0.
		if r.ActiveJobs < 0 || r.ActiveJobs > 3 {
			t.Fatalf("record %d: active jobs %d", i, r.ActiveJobs)
		}
		if r.OverflowKernels < 0 || r.OverflowKernels > 4 {
			t.Fatalf("record %d: overflow kernels %d", i, r.OverflowKernels)
		}
	}
}

func TestQuantaAccountForAllGPUTime(t *testing.T) {
	// Under exclusive token scheduling, the sum of per-quantum GPU
	// durations must equal (almost all of) the device's total busy time —
	// the leakage that motivated the launch-side yield point stays gone.
	q := 400 * time.Microsecond
	h := newHarness(t, 1, Config{Quantum: q})
	g := chainGraph(t, "m", 200, 90*time.Microsecond)
	h.sched.SetProfile(g, uniformProfile(g, q))
	h.run(t, []clientSpec{{graph: g}, {graph: g}, {graph: g}})
	var attributed time.Duration
	for _, r := range h.records() {
		attributed += r.GPUDuration
	}
	total := h.dev.TotalBusy()
	frac := attributed.Seconds() / total.Seconds()
	if frac < 0.97 || frac > 1.01 {
		t.Fatalf("quanta account for %.1f%% of busy time (attributed %v of %v)",
			frac*100, attributed, total)
	}
}

func TestSwitchCountMatchesCostArithmetic(t *testing.T) {
	// Each job's quanta count should be ~ TotalCost/Threshold.
	q := 500 * time.Microsecond
	h := newHarness(t, 1, Config{Quantum: q, SwitchCost: 0})
	g := chainGraph(t, "m", 400, 100*time.Microsecond) // cost 40ms each
	prof := uniformProfile(g, q)
	h.sched.SetProfile(g, prof)
	h.run(t, []clientSpec{{graph: g}, {graph: g}})
	perClient := map[int]int{}
	for _, r := range h.records() {
		perClient[r.Client]++
	}
	want := int(prof.TotalCost / prof.Threshold) // 80
	for c, got := range perClient {
		if got < want-3 || got > want+3 {
			t.Fatalf("client %d received %d quanta, want ~%d", c, got, want)
		}
	}
}

func TestWallClockIntervalsNearQ(t *testing.T) {
	q := 600 * time.Microsecond
	h := newHarness(t, 1, Config{Quantum: q, Mode: WallClock, SwitchCost: 0})
	g := chainGraph(t, "m", 300, 60*time.Microsecond)
	h.run(t, []clientSpec{{graph: g}, {graph: g}})
	recs := h.records()
	if len(recs) < 20 {
		t.Fatalf("only %d records", len(recs))
	}
	var over int
	for _, r := range recs[:len(recs)-2] {
		wall := time.Duration(r.End - r.Start)
		// Intervals may overshoot by up to one node duration, but must
		// never be wildly off Q.
		if wall > q+200*time.Microsecond {
			over++
		}
	}
	if frac := float64(over) / float64(len(recs)); frac > 0.05 {
		t.Fatalf("%.0f%% of wall-clock intervals overshoot Q substantially", frac*100)
	}
}

// holderClient is the client id of the current token holder, or -1.
func holderClient(s *Scheduler) int {
	if s.holder == nil {
		return -1
	}
	return s.holder.job.Client
}

func TestHolderClientTracksToken(t *testing.T) {
	q := 300 * time.Microsecond
	h := newHarness(t, 1, Config{Quantum: q})
	g := chainGraph(t, "m", 50, 80*time.Microsecond)
	h.sched.SetProfile(g, uniformProfile(g, q))
	if holderClient(h.sched) != -1 {
		t.Fatal("holder before any job")
	}
	h.run(t, []clientSpec{{graph: g}, {graph: g}})
	if holderClient(h.sched) != -1 {
		t.Fatalf("holder %d after all jobs finished", holderClient(h.sched))
	}
	if len(h.sched.jobs) != 0 {
		t.Fatal("jobs leaked")
	}
}

func TestSchedulerConfigDefaults(t *testing.T) {
	h := newHarness(t, 1, Config{})
	cfg := h.sched.cfg
	if cfg.Policy == nil || cfg.Quantum <= 0 || cfg.Mode != CostBased {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

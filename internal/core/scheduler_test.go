package core

import (
	"testing"
	"time"

	"olympian/internal/executor"
	"olympian/internal/gpu"
	"olympian/internal/graph"
	"olympian/internal/sim"
)

var testSpec = gpu.Spec{Name: "test", ClockScale: 1, Capacity: 1, MemoryBytes: 1 << 30}

// chainGraph builds a root CPU node followed by an async chain of n GPU
// kernels of duration d each.
func chainGraph(t *testing.T, name string, n int, d time.Duration) *graph.Graph {
	t.Helper()
	var head, tail *graph.Node
	for i := 0; i < n; i++ {
		node := &graph.Node{Op: "k", Device: graph.GPU, Duration: d, Occupancy: 1.0}
		if head == nil {
			head, tail = node, node
		} else {
			tail.Children = append(tail.Children, node)
			tail = node
		}
	}
	head.Async = true
	root := &graph.Node{Op: "root", Device: graph.CPU, Duration: time.Microsecond, Children: []*graph.Node{head}}
	g := &graph.Graph{Model: name, BatchSize: 1, Root: root}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

// uniformProfile attaches a profile whose node costs equal nominal durations
// and whose threshold is q.
func uniformProfile(g *graph.Graph, q time.Duration) *JobProfile {
	costs := make([]time.Duration, len(g.Nodes))
	var total time.Duration
	for i, n := range g.Nodes {
		if n.IsGPU() {
			costs[i] = n.Duration
			total += n.Duration
		}
	}
	return &JobProfile{NodeCost: costs, TotalCost: total, GPUDuration: total, Threshold: q}
}

// harness runs one job per client over the same graph and returns finish
// times by client. recs collects the scheduler's finalized intervals.
type harness struct {
	env   *sim.Env
	dev   *gpu.Device
	eng   *executor.Engine
	sched *Scheduler
	recs  []QuantumRecord
}

func newHarness(t *testing.T, seed int64, cfg Config) *harness {
	t.Helper()
	env := sim.NewEnv(seed)
	dev := gpu.New(env, testSpec, env.Rand())
	sched := New(env, dev, cfg)
	eng := executor.New(env, dev, executor.Config{}, sched)
	h := &harness{env: env, dev: dev, eng: eng, sched: sched}
	sched.OnQuantum(func(r QuantumRecord) { h.recs = append(h.recs, r) })
	return h
}

// records returns every interval of the run, flushing one still staged.
func (h *harness) records() []QuantumRecord {
	h.sched.Flush()
	return h.recs
}

type clientSpec struct {
	graph    *graph.Graph
	weight   int
	priority int
	batches  int
}

// run launches one client proc per spec; returns per-client finish times.
func (h *harness) run(t *testing.T, specs []clientSpec) []time.Duration {
	t.Helper()
	finishes := make([]time.Duration, len(specs))
	for i, spec := range specs {
		i, spec := i, spec
		h.env.Go("client", func(p *sim.Proc) {
			batches := spec.batches
			if batches == 0 {
				batches = 1
			}
			// One stream and one job carry the client's batches, as in
			// workload.Run.
			stream := &gpu.Stream{ID: i}
			var job executor.Job
			for b := 0; b < batches; b++ {
				h.eng.InitJob(&job, stream, spec.graph)
				job.Weight = spec.weight
				job.Priority = spec.priority
				h.eng.Run(p, &job)
			}
			finishes[i] = time.Duration(p.Now())
		})
	}
	if err := h.env.Run(); err != nil {
		t.Fatal(err)
	}
	h.env.Shutdown()
	return finishes
}

func TestFairSharingEqualizesFinishTimes(t *testing.T) {
	q := 500 * time.Microsecond
	h := newHarness(t, 1, Config{Quantum: q, SwitchCost: 0})
	g := chainGraph(t, "m", 200, 100*time.Microsecond) // 20ms GPU work each
	h.sched.SetProfile(g, uniformProfile(g, q))
	fin := h.run(t, []clientSpec{{graph: g}, {graph: g}, {graph: g}, {graph: g}})
	// All four clients should finish within a quantum or two of each other,
	// near 4x the solo time.
	var minF, maxF = fin[0], fin[0]
	for _, f := range fin {
		if f < minF {
			minF = f
		}
		if f > maxF {
			maxF = f
		}
	}
	if maxF-minF > 4*q {
		t.Fatalf("finish spread %v exceeds 4 quanta; finishes %v", maxF-minF, fin)
	}
	if maxF < 75*time.Millisecond || maxF > 90*time.Millisecond {
		t.Fatalf("last finish %v, want ~80ms (4 x 20ms plus overhead)", maxF)
	}
}

func TestTokenGivesExclusiveAccessModuloOverflow(t *testing.T) {
	// While one job holds the token, only its kernels (plus at most the
	// in-flight overflow kernel of the previous holder) may run.
	q := 500 * time.Microsecond
	h := newHarness(t, 1, Config{Quantum: q, SwitchCost: 0})
	g := chainGraph(t, "m", 100, 100*time.Microsecond)
	h.sched.SetProfile(g, uniformProfile(g, q))
	h.run(t, []clientSpec{{graph: g}, {graph: g}})
	recs := h.records()
	if len(recs) < 10 {
		t.Fatalf("only %d scheduling intervals recorded", len(recs))
	}
	// Each full interval's GPU duration should be near the quantum: the
	// holder runs alone (100us kernels against a 500us threshold).
	full := 0
	for _, r := range recs[:len(recs)-2] {
		if r.ActiveJobs < 2 {
			continue
		}
		full++
		if r.GPUDuration < q-150*time.Microsecond || r.GPUDuration > q+150*time.Microsecond {
			t.Fatalf("interval GPU duration %v far from quantum %v", r.GPUDuration, q)
		}
	}
	if full == 0 {
		t.Fatal("no full intervals with both jobs active")
	}
}

func TestQuantumThresholdSubtractsNotResets(t *testing.T) {
	// A kernel larger than the threshold must carry its excess cost into
	// the next quantum (cumulatedCost -= threshold, Algorithm 2 line 17).
	q := 150 * time.Microsecond
	h := newHarness(t, 1, Config{Quantum: q, SwitchCost: 0})
	g := chainGraph(t, "m", 10, 400*time.Microsecond) // each node >> threshold
	h.sched.SetProfile(g, uniformProfile(g, q))
	h.run(t, []clientSpec{{graph: g}, {graph: g}})
	// Each 400us node crosses the 150us threshold; with subtraction the
	// excess (250us, then 100us after a second crossing...) persists. The
	// run completing at all, with interleaving, is the main check; verify
	// both jobs got several intervals.
	perClient := map[int]int{}
	for _, r := range h.records() {
		perClient[r.Client]++
	}
	if perClient[0] < 3 || perClient[1] < 3 {
		t.Fatalf("expected several intervals per client, got %v", perClient)
	}
}

func TestWeightedFairGrantsProportionalQuanta(t *testing.T) {
	q := 200 * time.Microsecond
	h := newHarness(t, 1, Config{Quantum: q, SwitchCost: 0, Policy: NewWeightedFair()})
	g := chainGraph(t, "m", 300, 50*time.Microsecond)
	h.sched.SetProfile(g, uniformProfile(g, q))
	fin := h.run(t, []clientSpec{
		{graph: g, weight: 2},
		{graph: g, weight: 1},
	})
	if fin[0] >= fin[1] {
		t.Fatalf("weight-2 client finished at %v, after weight-1 at %v", fin[0], fin[1])
	}
	// Theory (paper §4.2): with equal work and weights k:1, the heavy job
	// finishes at (k+1)/2k of the light job's time: 0.75 for k=2.
	ratio := float64(fin[0]) / float64(fin[1])
	if ratio < 0.65 || ratio > 0.85 {
		t.Fatalf("finish ratio %.2f, want ~0.75", ratio)
	}
}

func TestPrioritySerializesStrictPriorities(t *testing.T) {
	q := 200 * time.Microsecond
	h := newHarness(t, 1, Config{Quantum: q, SwitchCost: 0, Policy: NewPriority()})
	g := chainGraph(t, "m", 100, 50*time.Microsecond) // 5ms each
	h.sched.SetProfile(g, uniformProfile(g, q))
	fin := h.run(t, []clientSpec{
		{graph: g, priority: 3},
		{graph: g, priority: 2},
		{graph: g, priority: 1},
	})
	if !(fin[0] < fin[1] && fin[1] < fin[2]) {
		t.Fatalf("priorities not serialized: %v", fin)
	}
	// Highest priority should finish in ~solo time (5ms), not 1/3 of total.
	if fin[0] > 8*time.Millisecond {
		t.Fatalf("high-priority client took %v, want near solo 5ms", fin[0])
	}
}

func TestEqualPriorityTierFairShares(t *testing.T) {
	q := 200 * time.Microsecond
	h := newHarness(t, 1, Config{Quantum: q, SwitchCost: 0, Policy: NewPriority()})
	g := chainGraph(t, "m", 100, 50*time.Microsecond)
	h.sched.SetProfile(g, uniformProfile(g, q))
	fin := h.run(t, []clientSpec{
		{graph: g, priority: 2},
		{graph: g, priority: 2},
		{graph: g, priority: 1},
		{graph: g, priority: 1},
	})
	// The two high-priority clients share and finish together near 10ms;
	// the low tier follows near 20ms.
	if d := fin[0] - fin[1]; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("high tier did not fair-share: %v vs %v", fin[0], fin[1])
	}
	if fin[2] < fin[0] || fin[3] < fin[1] {
		t.Fatalf("low tier finished before high tier: %v", fin)
	}
}

func TestWallClockModeRotates(t *testing.T) {
	q := 300 * time.Microsecond
	h := newHarness(t, 1, Config{Quantum: q, SwitchCost: 0, Mode: WallClock})
	g := chainGraph(t, "m", 100, 50*time.Microsecond)
	fin := h.run(t, []clientSpec{{graph: g}, {graph: g}})
	if h.sched.Switches() < 10 {
		t.Fatalf("wall-clock mode made only %d switches", h.sched.Switches())
	}
	if fin[0] <= 5*time.Millisecond || fin[1] <= 5*time.Millisecond {
		t.Fatalf("both clients should take >solo time: %v", fin)
	}
}

func TestDeregisterPassesToken(t *testing.T) {
	q := 200 * time.Microsecond
	h := newHarness(t, 1, Config{Quantum: q, SwitchCost: 0})
	short := chainGraph(t, "short", 10, 50*time.Microsecond)
	long := chainGraph(t, "long", 200, 50*time.Microsecond)
	h.sched.SetProfile(short, uniformProfile(short, q))
	h.sched.SetProfile(long, uniformProfile(long, q))
	fin := h.run(t, []clientSpec{{graph: short}, {graph: long}})
	if fin[0] >= fin[1] {
		t.Fatalf("short job should finish first: %v", fin)
	}
	if len(h.sched.jobs) != 0 {
		t.Fatalf("%d jobs still registered after run", len(h.sched.jobs))
	}
}

func TestSwitchCostDelaysQuantumStart(t *testing.T) {
	g := func(h *harness) *graph.Graph {
		gr := chainGraph(t, "m", 60, 100*time.Microsecond)
		h.sched.SetProfile(gr, uniformProfile(gr, 500*time.Microsecond))
		return gr
	}
	run := func(switchCost time.Duration) time.Duration {
		h := newHarness(t, 1, Config{Quantum: 500 * time.Microsecond, SwitchCost: switchCost})
		gr := g(h)
		fin := h.run(t, []clientSpec{{graph: gr}, {graph: gr}})
		if fin[1] > fin[0] {
			return fin[1]
		}
		return fin[0]
	}
	free := run(0)
	costly := run(100 * time.Microsecond)
	if costly <= free {
		t.Fatalf("switch cost did not slow the run: %v vs %v", costly, free)
	}
}

func TestMultiBatchClientsReregister(t *testing.T) {
	q := 300 * time.Microsecond
	h := newHarness(t, 1, Config{Quantum: q, SwitchCost: 0})
	g := chainGraph(t, "m", 40, 50*time.Microsecond)
	h.sched.SetProfile(g, uniformProfile(g, q))
	fin := h.run(t, []clientSpec{
		{graph: g, batches: 5},
		{graph: g, batches: 5},
	})
	if fin[0] <= 0 || fin[1] <= 0 {
		t.Fatalf("clients did not finish: %v", fin)
	}
	spread := fin[0] - fin[1]
	if spread < 0 {
		spread = -spread
	}
	if spread > 2*time.Millisecond {
		t.Fatalf("multi-batch clients diverged by %v", spread)
	}
}

func TestUnprofiledJobFallsBackToNominalCosts(t *testing.T) {
	q := 300 * time.Microsecond
	h := newHarness(t, 1, Config{Quantum: q, SwitchCost: 0})
	g := chainGraph(t, "m", 50, 50*time.Microsecond)
	// No SetProfile: scheduler uses nominal durations with threshold Q.
	fin := h.run(t, []clientSpec{{graph: g}, {graph: g}})
	if h.sched.Switches() < 5 {
		t.Fatalf("fallback mode made only %d switches", h.sched.Switches())
	}
	spread := fin[0] - fin[1]
	if spread < 0 {
		spread = -spread
	}
	if spread > 2*time.Millisecond {
		t.Fatalf("fallback fair sharing diverged by %v", spread)
	}
}

// TestReusedStreamRecordsPinned runs one closed-loop client through three
// batches on one stream and pins every interval. A stream carries one job at
// a time, but its busy time runs on across jobs, so each job's last interval
// must be finalized when the job departs: read later, it would take in the
// next job's GPU time. The values are those of the per-job accounting the
// stream replaced, including the shift a solo job's self re-grant causes
// (the third and fourth intervals of each job read 0s).
func TestReusedStreamRecordsPinned(t *testing.T) {
	q := time.Millisecond
	h := newHarness(t, 1, Config{Quantum: q, SwitchCost: DefaultSwitchCost})
	g := chainGraph(t, "m", 30, 100*time.Microsecond) // 3ms GPU work each
	h.sched.SetProfile(g, uniformProfile(g, q))
	h.run(t, []clientSpec{{graph: g, batches: 3}})
	type rec struct {
		job        int
		start, end sim.Time
		gpu        time.Duration
		overflow   int
	}
	const ms = sim.Time(time.Millisecond)
	want := []rec{
		{1, 0, 1*ms + 1000, time.Millisecond, 0},
		{1, 1*ms + 1000, 2*ms + 1000, time.Millisecond, 0},
		{1, 2*ms + 1000, 3*ms + 1000, 0, 0},
		{1, 3*ms + 1000, 3*ms + 1000, 0, 0},
		{2, 3*ms + 1000, 4*ms + 2000, time.Millisecond, 0},
		{2, 4*ms + 2000, 5*ms + 2000, time.Millisecond, 0},
		{2, 5*ms + 2000, 6*ms + 2000, 0, 0},
		{2, 6*ms + 2000, 6*ms + 2000, 0, 0},
		{3, 6*ms + 2000, 7*ms + 3000, time.Millisecond, 0},
		{3, 7*ms + 3000, 8*ms + 3000, time.Millisecond, 0},
		{3, 8*ms + 3000, 9*ms + 3000, 0, 0},
		{3, 9*ms + 3000, 9*ms + 3000, 0, 0},
	}
	var got []rec
	for _, r := range h.records() {
		got = append(got, rec{r.JobID, r.Start, r.End, r.GPUDuration, r.OverflowKernels})
	}
	if len(got) != len(want) {
		t.Fatalf("%d intervals, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("interval %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// recycleCheck wraps a scheduler and checks its record lists after every
// Deregister: no slot past a list's length keeps a record, and a freed
// record keeps its Cond but not its job or profile.
type recycleCheck struct {
	*Scheduler
	t    *testing.T
	seen map[*jobState]bool
}

func (c *recycleCheck) Register(job *executor.Job) {
	c.Scheduler.Register(job)
	c.seen[c.jobs[len(c.jobs)-1]] = true
}

func (c *recycleCheck) Deregister(job *executor.Job) {
	c.Scheduler.Deregister(job)
	for name, list := range map[string][]*jobState{"jobs": c.jobs, "free": c.free} {
		for i, js := range list[len(list):cap(list)] {
			if js != nil {
				c.t.Errorf("%s[%d] past length %d still holds a record", name, len(list)+i, len(list))
			}
		}
	}
	for _, js := range c.free {
		if js.job != nil || js.profile != nil || js.cond == nil {
			c.t.Errorf("freed record %+v keeps its job or profile, or lost its Cond", *js)
		}
	}
}

// TestDeregisterRecyclesRecords runs three closed-loop clients through four
// batches each. Every registration after the first three reuses a record
// Deregister freed, and no removal leaves a stale pointer behind.
func TestDeregisterRecyclesRecords(t *testing.T) {
	q := 500 * time.Microsecond
	h := newHarness(t, 1, Config{Quantum: q, SwitchCost: DefaultSwitchCost})
	check := &recycleCheck{Scheduler: h.sched, t: t, seen: make(map[*jobState]bool)}
	h.eng = executor.New(h.env, h.dev, executor.Config{}, check)
	g := chainGraph(t, "m", 20, 100*time.Microsecond)
	h.sched.SetProfile(g, uniformProfile(g, q))
	h.run(t, []clientSpec{{graph: g, batches: 4}, {graph: g, batches: 4}, {graph: g, batches: 4}})
	if len(check.seen) != 3 || len(h.sched.free) != 3 || len(h.sched.jobs) != 0 {
		t.Fatalf("12 jobs used %d records, %d free and %d registered at the end, want 3, 3 and 0",
			len(check.seen), len(h.sched.free), len(h.sched.jobs))
	}
	if h.sched.Switches() == 0 {
		t.Fatal("no hand-offs: the clients never overlapped")
	}
}

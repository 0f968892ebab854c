package executor

import (
	"testing"
	"time"

	"olympian/internal/gpu"
	"olympian/internal/graph"
	"olympian/internal/model"
	"olympian/internal/sim"
)

// testSpec has no launch latency for exact arithmetic.
var testSpec = gpu.Spec{Name: "test", ClockScale: 1, Capacity: 1, MemoryBytes: 1 << 30}

// lineGraph builds root -> a(GPU, async) -> b(GPU), plus root -> c(CPU).
func lineGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := &graph.Node{Op: "b", Device: graph.GPU, Duration: 2 * time.Millisecond, Occupancy: 1}
	a := &graph.Node{Op: "a", Device: graph.GPU, Duration: 3 * time.Millisecond, Occupancy: 1, Async: true, Children: []*graph.Node{b}}
	c := &graph.Node{Op: "c", Device: graph.CPU, Duration: 1 * time.Millisecond}
	root := &graph.Node{Op: "root", Device: graph.CPU, Duration: 1 * time.Millisecond, Children: []*graph.Node{a, c}}
	g := &graph.Graph{Model: "line", BatchSize: 1, Root: root}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunExecutesAllNodes(t *testing.T) {
	env := sim.NewEnv(1)
	dev := gpu.New(env, testSpec, env.Rand())
	eng := New(env, dev, Config{}, nil)
	g := lineGraph(t)

	var executed []string
	eng.NodeObserver = func(_ *Job, n *graph.Node, _, _ time.Duration) {
		executed = append(executed, n.Op)
	}
	job := new(Job)
	eng.InitJob(job, &gpu.Stream{ID: 1}, g)
	env.Go("client", func(p *sim.Proc) { eng.Run(p, job) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if len(executed) != 4 {
		t.Fatalf("executed %v, want 4 nodes", executed)
	}
	// root(1ms CPU) then async a(3ms GPU)->b(2ms GPU); c(1ms CPU) overlaps a.
	// Completion: root at 1ms, a at 4ms, b at 6ms, c at 2ms.
	if job.EndAt != sim.Time(6*time.Millisecond) {
		t.Fatalf("job finished at %v, want 6ms", job.EndAt)
	}
}

func TestJobTimesRecorded(t *testing.T) {
	env := sim.NewEnv(1)
	dev := gpu.New(env, testSpec, env.Rand())
	eng := New(env, dev, Config{}, nil)
	g := lineGraph(t)
	job := new(Job)
	eng.InitJob(job, &gpu.Stream{ID: 1}, g)
	env.Go("client", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		eng.Run(p, job)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if job.StartAt != sim.Time(5*time.Millisecond) {
		t.Fatalf("start %v, want 5ms", job.StartAt)
	}
	if job.EndAt <= job.StartAt {
		t.Fatalf("end %v not after start %v", job.EndAt, job.StartAt)
	}
}

// recordingHooks logs hook invocations.
type recordingHooks struct {
	registered, deregistered int
	yields, nodeDones        int
}

func (h *recordingHooks) Register(*Job)              { h.registered++ }
func (h *recordingHooks) Deregister(*Job)            { h.deregistered++ }
func (h *recordingHooks) Yield(*sim.Proc, *Job)      { h.yields++ }
func (h *recordingHooks) NodeDone(*Job, *graph.Node) { h.nodeDones++ }
func (h *recordingHooks) Cancel(*Job)                {}

func TestHooksCalledPerNode(t *testing.T) {
	env := sim.NewEnv(1)
	dev := gpu.New(env, testSpec, env.Rand())
	hooks := &recordingHooks{}
	eng := New(env, dev, Config{}, hooks)
	g := lineGraph(t)
	job := new(Job)
	eng.InitJob(job, &gpu.Stream{ID: 1}, g)
	env.Go("client", func(p *sim.Proc) { eng.Run(p, job) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if hooks.registered != 1 || hooks.deregistered != 1 {
		t.Fatalf("register/deregister = %d/%d, want 1/1", hooks.registered, hooks.deregistered)
	}
	// One yield per node plus one launch-side yield per GPU node.
	if hooks.yields != 6 || hooks.nodeDones != 4 {
		t.Fatalf("yields/nodeDones = %d/%d, want 6/4", hooks.yields, hooks.nodeDones)
	}
}

func TestThreadPoolLimitDelaysExecution(t *testing.T) {
	// Two async GPU branches but a pool of 1 thread: the second branch is
	// delayed until the first finishes, serializing them.
	mk := func(poolSize int) sim.Time {
		env := sim.NewEnv(1)
		dev := gpu.New(env, testSpec, env.Rand())
		eng := New(env, dev, Config{ThreadPoolSize: poolSize}, nil)
		a := &graph.Node{Op: "a", Device: graph.GPU, Duration: 4 * time.Millisecond, Occupancy: 0.4, Async: true}
		b := &graph.Node{Op: "b", Device: graph.GPU, Duration: 4 * time.Millisecond, Occupancy: 0.4, Async: true}
		root := &graph.Node{Op: "root", Device: graph.CPU, Duration: time.Millisecond, Children: []*graph.Node{a, b}}
		g := &graph.Graph{Model: "fork", BatchSize: 1, Root: root}
		if err := g.Finalize(); err != nil {
			t.Fatal(err)
		}
		job := new(Job)
		eng.InitJob(job, &gpu.Stream{ID: 1}, g)
		env.Go("client", func(p *sim.Proc) { eng.Run(p, job) })
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		env.Shutdown()
		return job.EndAt
	}
	parallel := mk(8)
	serial := mk(1)
	if parallel != sim.Time(5*time.Millisecond) {
		t.Fatalf("parallel finish %v, want 5ms", parallel)
	}
	if serial != sim.Time(9*time.Millisecond) {
		t.Fatalf("serial finish %v, want 9ms (pool of 1 serializes)", serial)
	}
}

func TestOnlineProfilingTaxInflatesRuntime(t *testing.T) {
	run := func(tax time.Duration) sim.Time {
		env := sim.NewEnv(1)
		dev := gpu.New(env, testSpec, env.Rand())
		eng := New(env, dev, Config{OnlineProfilingTax: tax}, nil)
		g := lineGraph(t)
		job := new(Job)
		eng.InitJob(job, &gpu.Stream{ID: 1}, g)
		env.Go("client", func(p *sim.Proc) { eng.Run(p, job) })
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		env.Shutdown()
		return job.EndAt
	}
	base := run(0)
	taxed := run(500 * time.Microsecond)
	if taxed <= base {
		t.Fatalf("online profiling did not inflate runtime: %v vs %v", taxed, base)
	}
}

func TestJitterPerturbsDurationsDeterministically(t *testing.T) {
	run := func(seed int64) sim.Time {
		env := sim.NewEnv(seed)
		dev := gpu.New(env, testSpec, env.Rand())
		eng := New(env, dev, Config{Jitter: 0.1}, nil)
		g := lineGraph(t)
		job := new(Job)
		eng.InitJob(job, &gpu.Stream{ID: 1}, g)
		env.Go("client", func(p *sim.Proc) { eng.Run(p, job) })
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		env.Shutdown()
		return job.EndAt
	}
	a1, a2, b := run(1), run(1), run(2)
	if a1 != a2 {
		t.Fatalf("same seed diverged: %v vs %v", a1, a2)
	}
	if a1 == b {
		t.Fatal("different seeds produced identical jitter")
	}
}

func TestSoloModelRunMatchesCalibratedRuntime(t *testing.T) {
	// End-to-end calibration: a solo Inception batch-100 inference should
	// run for roughly the calibrated target (~0.5s) on the reference GPU.
	for _, tc := range []struct {
		name  string
		batch int
	}{
		{model.Inception, 100},
		{model.ResNet152, 100},
	} {
		g, err := model.Build(tc.name, tc.batch)
		if err != nil {
			t.Fatal(err)
		}
		want, err := model.TargetRuntime(tc.name, tc.batch)
		if err != nil {
			t.Fatal(err)
		}
		env := sim.NewEnv(1)
		dev := gpu.New(env, gpu.GTX1080Ti, env.Rand())
		eng := New(env, dev, Config{}, nil)
		job := new(Job)
		eng.InitJob(job, &gpu.Stream{ID: 1}, g)
		env.Go("client", func(p *sim.Proc) { eng.Run(p, job) })
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		env.Shutdown()
		got := time.Duration(job.EndAt)
		lo := time.Duration(float64(want) * 0.75)
		hi := time.Duration(float64(want) * 1.25)
		if got < lo || got > hi {
			t.Errorf("%s batch %d: solo runtime %v outside [%v, %v]",
				tc.name, tc.batch, got.Round(time.Millisecond), lo.Round(time.Millisecond), hi.Round(time.Millisecond))
		}
	}
}

func TestPoolStats(t *testing.T) {
	env := sim.NewEnv(1)
	done := 0
	tp := NewThreadPool(env, 2, func(w *sim.Proc, _ *Job, _ *graph.Node) {
		w.Sleep(time.Millisecond)
		done++
	})
	job := &Job{ID: 1}
	env.Go("submitter", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			tp.Submit(job, nil)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if done != 5 {
		t.Fatalf("completed %d tasks, want 5", done)
	}
	s := tp.Stats()
	if s.Spawned != 2 {
		t.Fatalf("spawned %d threads, want 2 (the cap)", s.Spawned)
	}
	if s.Delayed != 3 {
		t.Fatalf("delayed %d submissions, want 3", s.Delayed)
	}
	if s.Completed != 5 {
		t.Fatalf("completed stat %d, want 5", s.Completed)
	}
}

func TestJobThreadAccounting(t *testing.T) {
	env := sim.NewEnv(1)
	tp := NewThreadPool(env, 4, func(w *sim.Proc, _ *Job, _ *graph.Node) { w.Sleep(2 * time.Millisecond) })
	a, b := &Job{ID: 7}, &Job{ID: 9}
	env.Go("submitter", func(p *sim.Proc) {
		tp.Submit(a, nil)
		tp.Submit(a, nil)
		tp.Submit(b, nil)
		p.Sleep(time.Millisecond)
		if got := tp.InUse(); got != 3 {
			t.Errorf("in use = %d, want 3", got)
		}
		p.Sleep(2 * time.Millisecond)
		if got := tp.InUse(); got != 0 {
			t.Errorf("in use after completion = %d, want 0", got)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
}

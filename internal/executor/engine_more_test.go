package executor

import (
	"testing"
	"time"

	"olympian/internal/gpu"
	"olympian/internal/graph"
	"olympian/internal/obs"
	"olympian/internal/sim"
)

// wideGraph builds a root with n async GPU children of equal duration.
func wideGraph(t *testing.T, n int, d time.Duration, occ float64) *graph.Graph {
	t.Helper()
	root := &graph.Node{Op: "root", Device: graph.CPU, Duration: time.Microsecond}
	for i := 0; i < n; i++ {
		root.Children = append(root.Children, &graph.Node{
			Op: "k", Device: graph.GPU, Duration: d, Occupancy: occ, Async: true,
		})
	}
	g := &graph.Graph{Model: "wide", BatchSize: 1, Root: root}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMaxInflightBoundsConcurrentKernels(t *testing.T) {
	// 8 parallel 0.1-occupancy kernels would all fit on the device, but a
	// per-job in-flight limit of 2 serializes them into 4 waves.
	env := sim.NewEnv(1)
	dev := gpu.New(env, testSpec, env.Rand())
	eng := New(env, dev, Config{MaxInflight: 2}, nil)
	g := wideGraph(t, 8, 4*time.Millisecond, 0.1)
	job := new(Job)
	eng.InitJob(job, &gpu.Stream{ID: 1}, g)
	env.Go("client", func(p *sim.Proc) { eng.Run(p, job) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	// 8 kernels / 2 in flight = 4 waves of 4ms (plus the 1us root).
	want := sim.Time(16*time.Millisecond + time.Microsecond)
	if job.EndAt != want {
		t.Fatalf("finished at %v, want %v", job.EndAt, want)
	}
}

func TestBFSOrderIsLevelOrder(t *testing.T) {
	// root -> (a, b); a -> c; b -> d. Synchronous nodes execute in BFS
	// order: root a b c d.
	mk := func(op string) *graph.Node {
		return &graph.Node{Op: op, Device: graph.CPU, Duration: time.Microsecond}
	}
	c, d := mk("c"), mk("d")
	a, b := mk("a"), mk("b")
	a.Children = []*graph.Node{c}
	b.Children = []*graph.Node{d}
	root := mk("root")
	root.Children = []*graph.Node{a, b}
	g := &graph.Graph{Model: "bfs", BatchSize: 1, Root: root}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}

	env := sim.NewEnv(1)
	dev := gpu.New(env, testSpec, env.Rand())
	eng := New(env, dev, Config{}, nil)
	var order []string
	eng.NodeObserver = func(_ *Job, n *graph.Node, _, _ time.Duration) {
		order = append(order, n.Op)
	}
	job := new(Job)
	eng.InitJob(job, &gpu.Stream{ID: 1}, g)
	env.Go("client", func(p *sim.Proc) { eng.Run(p, job) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	want := []string{"root", "a", "b", "c", "d"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

func TestStreamCarriesClientID(t *testing.T) {
	env := sim.NewEnv(1)
	dev := gpu.New(env, testSpec, env.Rand())
	rec := obs.NewRecorder()
	rec.Bind(env, "stream")
	eng := New(env, dev, Config{Obs: rec}, nil)
	g := wideGraph(t, 2, time.Millisecond, 0.5)
	job := new(Job)
	eng.InitJob(job, &gpu.Stream{ID: 42}, g)
	env.Go("client", func(p *sim.Proc) { eng.Run(p, job) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	// Each kernel span carries its submission stream as Arg.
	kernels := 0
	for _, s := range rec.Spans() {
		if s.Layer != obs.LayerGPU || s.Name != "kernel" {
			continue
		}
		if s.Arg != 42 || int(s.Req) != job.ID {
			t.Fatalf("kernel of job %d on stream %d, want job %d on the client's stream 42", s.Req, s.Arg, job.ID)
		}
		kernels++
	}
	if kernels != 2 {
		t.Fatalf("owner kernels %d, want 2", kernels)
	}
}

func TestProfilingFactorScalesWithGraph(t *testing.T) {
	env := sim.NewEnv(1)
	dev := gpu.New(env, testSpec, env.Rand())
	eng := New(env, dev, Config{OnlineProfilingTax: 10 * time.Microsecond}, nil)
	// Graph with lots of nodes per unit of GPU work gets a bigger factor.
	dense := wideGraph(t, 10, 100*time.Microsecond, 0.1)
	sparse := wideGraph(t, 2, 10*time.Millisecond, 0.1)
	fDense := eng.profilingFactor(dense)
	fSparse := eng.profilingFactor(sparse)
	if fDense <= fSparse || fSparse <= 1 {
		t.Fatalf("factors dense=%.3f sparse=%.3f", fDense, fSparse)
	}
	// Cached on second call.
	if eng.profilingFactor(dense) != fDense {
		t.Fatal("factor not cached")
	}
}

func TestKernelSlicingSplitsAndPays(t *testing.T) {
	// A 1ms kernel with 400us slices runs as 3 slices; the two later
	// slices each pay the 100us penalty: 1ms + 200us total.
	env := sim.NewEnv(1)
	dev := gpu.New(env, testSpec, env.Rand())
	eng := New(env, dev, Config{
		KernelSliceDur:     400 * time.Microsecond,
		KernelSlicePenalty: 100 * time.Microsecond,
	}, nil)
	g := wideGraph(t, 1, time.Millisecond, 1.0)
	job := new(Job)
	eng.InitJob(job, &gpu.Stream{ID: 1}, g)
	env.Go("client", func(p *sim.Proc) { eng.Run(p, job) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	want := sim.Time(1200*time.Microsecond + time.Microsecond) // + root
	if job.EndAt != want {
		t.Fatalf("sliced kernel finished at %v, want %v", job.EndAt, want)
	}
	if got := dev.Stats().KernelsRun; got != 3 {
		t.Fatalf("%d kernel launches, want 3 slices", got)
	}
}

func TestKernelSlicingLeavesSmallKernelsAlone(t *testing.T) {
	env := sim.NewEnv(1)
	dev := gpu.New(env, testSpec, env.Rand())
	eng := New(env, dev, Config{
		KernelSliceDur:     400 * time.Microsecond,
		KernelSlicePenalty: 100 * time.Microsecond,
	}, nil)
	g := wideGraph(t, 1, 300*time.Microsecond, 1.0)
	job := new(Job)
	eng.InitJob(job, &gpu.Stream{ID: 1}, g)
	env.Go("client", func(p *sim.Proc) { eng.Run(p, job) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if got := dev.Stats().KernelsRun; got != 1 {
		t.Fatalf("%d launches for a sub-slice kernel, want 1", got)
	}
}

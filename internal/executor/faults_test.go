package executor

import (
	"errors"
	"testing"
	"time"

	"olympian/internal/faults"
	"olympian/internal/gpu"
	"olympian/internal/graph"
	"olympian/internal/sim"
)

// gpuChain builds a root CPU node followed by an async chain of n GPU
// kernels.
func gpuChain(t *testing.T, n int, d time.Duration) *graph.Graph {
	t.Helper()
	var head, tail *graph.Node
	for i := 0; i < n; i++ {
		node := &graph.Node{Op: "k", Device: graph.GPU, Duration: d, Occupancy: 1}
		if head == nil {
			head, tail = node, node
		} else {
			tail.Children = append(tail.Children, node)
			tail = node
		}
	}
	head.Async = true
	root := &graph.Node{Op: "root", Device: graph.CPU, Duration: time.Microsecond, Children: []*graph.Node{head}}
	g := &graph.Graph{Model: "chain", BatchSize: 1, Root: root}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestKernelRetryRecoversTransientFaults(t *testing.T) {
	env := sim.NewEnv(1)
	dev := gpu.New(env, testSpec, env.Rand())
	inj := faults.New(9, faults.Plan{KernelFailRate: 0.1})
	dev.InjectFaults(inj)
	eng := New(env, dev, Config{Faults: inj}, nil)
	g := gpuChain(t, 60, 100*time.Microsecond)
	job := new(Job)
	eng.InitJob(job, &gpu.Stream{ID: 1}, g)
	env.Go("client", func(p *sim.Proc) { eng.Run(p, job) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if job.Err() != nil {
		t.Fatalf("job failed despite retries: %v", job.Err())
	}
	if eng.KernelRetries() == 0 {
		t.Fatal("no kernel retries recorded at a 10% fault rate over 60 kernels")
	}
	if inj.Counters().KernelFaults == 0 {
		t.Fatal("injector recorded no kernel faults")
	}
}

func TestPersistentKernelFaultAbortsJob(t *testing.T) {
	env := sim.NewEnv(1)
	dev := gpu.New(env, testSpec, env.Rand())
	inj := faults.New(1, faults.Plan{KernelFailRate: 1})
	dev.InjectFaults(inj)
	eng := New(env, dev, Config{Faults: inj}, nil)
	g := gpuChain(t, 5, 100*time.Microsecond)
	job := new(Job)
	eng.InitJob(job, &gpu.Stream{ID: 1}, g)
	env.Go("client", func(p *sim.Proc) { eng.Run(p, job) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if !job.Aborted() {
		t.Fatal("job not aborted despite a permanent kernel fault")
	}
	if !errors.Is(job.Err(), faults.ErrKernelFault) {
		t.Fatalf("job err = %v, want wrapped ErrKernelFault", job.Err())
	}
	// 1 launch + DefaultKernelRetries retries for the first kernel, then
	// give up.
	if eng.KernelRetries() != DefaultKernelRetries {
		t.Fatalf("kernel retries = %d, want %d", eng.KernelRetries(), DefaultKernelRetries)
	}
}

func TestInjectedAbortStopsGang(t *testing.T) {
	env := sim.NewEnv(1)
	dev := gpu.New(env, testSpec, env.Rand())
	inj := faults.New(2, faults.Plan{AbortRate: 0.05})
	eng := New(env, dev, Config{Faults: inj}, nil)
	g := gpuChain(t, 200, 50*time.Microsecond)
	job := new(Job)
	eng.InitJob(job, &gpu.Stream{ID: 1}, g)
	var finished sim.Time
	env.Go("client", func(p *sim.Proc) {
		eng.Run(p, job)
		finished = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if !job.Aborted() || !errors.Is(job.Err(), faults.ErrJobAborted) {
		t.Fatalf("expected injected abort at 5%% over 200 yield points, got err=%v", job.Err())
	}
	// The gang unwound early: the aborted run must end well before the 10ms
	// the full chain would take.
	if finished >= sim.Time(10*time.Millisecond) {
		t.Fatalf("aborted job ran to %v, want early unwind", finished)
	}
	if job.EndAt == 0 {
		t.Fatal("Run never returned for the aborted job")
	}
}

func TestAbortJobIsIdempotent(t *testing.T) {
	env := sim.NewEnv(1)
	dev := gpu.New(env, testSpec, env.Rand())
	eng := New(env, dev, Config{}, nil)
	g := gpuChain(t, 3, time.Millisecond)
	job := new(Job)
	eng.InitJob(job, &gpu.Stream{ID: 1}, g)
	first := errors.New("first")
	env.Go("client", func(p *sim.Proc) { eng.Run(p, job) })
	env.Go("chaos", func(p *sim.Proc) {
		p.Sleep(500 * time.Microsecond)
		eng.AbortJob(job, first)
		eng.AbortJob(job, errors.New("second"))
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if job.Err() != first {
		t.Fatalf("job err = %v, want the first abort reason", job.Err())
	}
}

// TestInitJobReusesGang runs one caller-held job twice, the first run
// aborted, as a workload client keeps one job across its retries: the
// second InitJob keeps the gang's WaitGroup and Semaphore, takes the next
// ID, and clears everything the first run and its caller set.
func TestInitJobReusesGang(t *testing.T) {
	env := sim.NewEnv(1)
	dev := gpu.New(env, testSpec, env.Rand())
	eng := New(env, dev, Config{}, nil)
	g := gpuChain(t, 3, time.Millisecond)
	stream := &gpu.Stream{ID: 4}
	job := new(Job)
	eng.InitJob(job, stream, g)
	wg, inflight, first := job.wg, job.inflight, job.ID
	job.Weight, job.Priority, job.Deadline = 3, 2, sim.Time(time.Second)
	env.Go("client", func(p *sim.Proc) {
		eng.Run(p, job)
		if !job.Aborted() || job.EndAt == 0 {
			t.Errorf("first run aborted=%v ended at %v, want an aborted, ended run", job.Aborted(), job.EndAt)
		}
		eng.InitJob(job, stream, g)
		if job.wg != wg || job.inflight != inflight {
			t.Error("InitJob replaced the reused job's WaitGroup or Semaphore")
		}
		want := Job{ID: first + 1, Client: 4, Stream: stream, Graph: g, Weight: 1, wg: wg, inflight: inflight}
		if *job != want {
			t.Errorf("reused job %+v, want %+v", *job, want)
		}
		eng.Run(p, job)
	})
	env.Go("chaos", func(p *sim.Proc) {
		p.Sleep(500 * time.Microsecond)
		eng.AbortJob(job, errors.New("abort"))
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if job.Aborted() || job.Err() != nil || job.EndAt <= job.StartAt {
		t.Fatalf("second run aborted=%v err=%v over [%v, %v], want a clean run", job.Aborted(), job.Err(), job.StartAt, job.EndAt)
	}
}

// TestInitJobPanicsOnLiveGang checks that a job whose gang still has a
// thread in flight or a kernel slot held cannot be re-initialized.
func TestInitJobPanicsOnLiveGang(t *testing.T) {
	env := sim.NewEnv(1)
	dev := gpu.New(env, testSpec, env.Rand())
	eng := New(env, dev, Config{}, nil)
	g := gpuChain(t, 1, time.Millisecond)
	stream := &gpu.Stream{ID: 1}
	job := new(Job)
	eng.InitJob(job, stream, g)
	mustPanic := func(what string) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("InitJob with %s did not panic", what)
			}
		}()
		eng.InitJob(job, stream, g)
	}
	job.wg.Add(1)
	mustPanic("a gang thread in flight")
	job.wg.Done()
	env.Go("client", func(p *sim.Proc) {
		job.inflight.Acquire(p)
		mustPanic("a kernel slot held")
		job.inflight.Release()
		eng.InitJob(job, stream, g)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
}

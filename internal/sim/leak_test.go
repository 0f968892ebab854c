package sim_test

import (
	"runtime"
	"testing"
	"time"

	"olympian/internal/cluster"
	"olympian/internal/gpu"
	"olympian/internal/model"
	"olympian/internal/overload"
	"olympian/internal/profiler"
	"olympian/internal/workload"
)

// TestNoGoroutineLeak runs each public entry point that builds its own
// environment twice and checks that the second round leaves no goroutine
// behind: every carrier the first round used went back to the shared pool
// and served the second.
func TestNoGoroutineLeak(t *testing.T) {
	round := func() {
		clients := []workload.ClientSpec{
			{Model: model.Inception, Batch: 40, Batches: 2},
			{Model: model.Inception, Batch: 40, Batches: 2},
		}
		if _, err := workload.Run(workload.Config{Seed: 1, Kind: workload.Olympian}, clients); err != nil {
			t.Fatal(err)
		}
		if _, err := profiler.ProfileLLM(model.LLMTiny, gpu.GTX1080Ti, 1); err != nil {
			t.Fatal(err)
		}
		// One worker keeps the run on this goroutine, so no pool worker
		// exits asynchronously and the count below is exact.
		c, err := cluster.NewSharded(cluster.Config{Seed: 1, Workers: 1, Devices: []gpu.Spec{gpu.GTX1080Ti, gpu.GTX1080Ti}}, cluster.Sharded)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			c.FrontEnv().Schedule(time.Duration(i)*time.Millisecond, func() {
				if _, err := c.SubmitEvent(model.Inception, overload.Interactive); err != nil {
					t.Errorf("submit: %v", err)
				}
			})
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		c.Shutdown()
	}
	round()
	base := runtime.NumGoroutine()
	round()
	if got := runtime.NumGoroutine(); got > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after the second round, want at most %d:\n%s", got, base, buf[:runtime.Stack(buf, true)])
	}
}

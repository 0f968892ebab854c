//go:build !race

package serving

import (
	"runtime"
	"testing"
	"time"

	"olympian/internal/model"
	"olympian/internal/overload"
	"olympian/internal/sim"
)

// TestServersRetainNoRequests serves evenly spaced arrivals through one
// standalone server at two lengths and charges the difference in live heap
// to the extra requests, so construction and profiling cancel out. A server
// that kept each request (the Request alone is over 100 bytes) would blow
// the bound, and so would a device that kept an entry per stream or per job
// owner (18 B/request on the CNN server and 55 on the LLM server when it
// did): nothing below the server outlives a finished request.
func TestServersRetainNoRequests(t *testing.T) {
	for _, row := range []struct {
		name        string
		short, long int
		// bound is bytes of live heap per extra request: slack above the
		// 0-1 measured on go1.24, far below the 260 and 290 that retaining
		// each request cost.
		bound float64
		serve func(t *testing.T, env *sim.Env, n int) (keep any, completed func() int)
	}{
		{"cnn", 2000, 6000, 8, serveCNN},
		{"llm", 1000, 3000, 8, serveLLM},
	} {
		t.Run(row.name, func(t *testing.T) {
			// A first run pays the process-wide one-time costs (the model
			// graph cache, the pooled proc carriers) so neither measured
			// run does.
			retainedHeap(t, row.short, row.serve)
			per := (retainedHeap(t, row.long, row.serve) - retainedHeap(t, row.short, row.serve)) / float64(row.long-row.short)
			t.Logf("%.2f B/request retained", per)
			if per > row.bound {
				t.Fatalf("server retains %.2f B/request, bound %.0f", per, row.bound)
			}
		})
	}
}

// retainedHeap returns the live heap a server holds after serving n
// requests, measured after a full GC while the server is still reachable.
func retainedHeap(t *testing.T, n int, serve func(*testing.T, *sim.Env, int) (any, func() int)) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	env := sim.NewEnv(1)
	keep, completed := serve(t, env, n)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := completed(); got != n {
		t.Fatalf("%d requests: %d completed", n, got)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	runtime.KeepAlive(env)
	env.Shutdown()
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// serveCNN submits n model.Micro requests 100us apart to a batching server.
func serveCNN(t *testing.T, env *sim.Env, n int) (any, func() int) {
	srv := newTestServer(t, env, Config{MaxBatch: 8}, env.Rand())
	env.ScheduleTrain(n, every(100*time.Microsecond), func() {
		if _, err := srv.SubmitClass(model.Micro, overload.Interactive); err != nil {
			t.Errorf("submit: %v", err)
		}
	})
	return srv, func() int { return srv.Stats().Completed }
}

// serveLLM submits n LLMTiny requests (prompt 32, output 4) 2ms apart to a
// colocated replica.
func serveLLM(t *testing.T, env *sim.Env, n int) (any, func() int) {
	srv := newLLMTestServer(t, env, LLMConfig{Model: model.LLMTiny})
	env.ScheduleTrain(n, every(2*time.Millisecond), func() {
		if _, err := submitLLM(srv, model.LLMTiny, overload.Interactive, 32, 4, 0); err != nil {
			t.Errorf("submit: %v", err)
		}
	})
	return srv, func() int { return srv.Stats().Completed }
}

// every returns ScheduleTrain offsets gap apart: gap, 2*gap, ...
func every(gap time.Duration) func() sim.Duration {
	var at sim.Duration
	return func() sim.Duration {
		at += gap
		return at
	}
}

//go:build !race

package cluster

import (
	"runtime"
	"testing"
	"time"

	"olympian/internal/model"
	"olympian/internal/overload"
	"olympian/internal/sim"
)

// TestFleetsRetainNoRequests runs evenly spaced arrivals through each fleet
// at two lengths and charges the difference in live heap to the extra
// requests, so construction and profiling cancel out. A fleet that kept each
// settled request or routing decision would blow the bound (229 B/request on
// the sharded fleet and 349 on the LLM fleet when both were kept); what
// remains is the devices' per-job accounting.
func TestFleetsRetainNoRequests(t *testing.T) {
	for _, row := range []struct {
		name        string
		short, long int
		// bound is bytes of live heap per extra request, above the 31
		// (sharded) and 55 (LLM) measured on go1.24.
		bound float64
		run   func(t *testing.T, n int) (keep any, completed func() int)
	}{
		{"sharded", 2000, 6000, 48, runShardedFleet},
		{"llm", 1000, 3000, 80, runLLMFleet},
	} {
		t.Run(row.name, func(t *testing.T) {
			// A first run pays the process-wide one-time costs (the model
			// graph cache, the pooled proc carriers) so neither measured
			// run does.
			fleetHeap(t, row.short, row.run)
			per := (fleetHeap(t, row.long, row.run) - fleetHeap(t, row.short, row.run)) / float64(row.long-row.short)
			t.Logf("%.2f B/request retained", per)
			if per > row.bound {
				t.Fatalf("fleet retains %.2f B/request, bound %.0f", per, row.bound)
			}
		})
	}
}

// fleetHeap returns the live heap a fleet holds after serving n requests,
// measured after a full GC while the fleet is still reachable.
func fleetHeap(t *testing.T, n int, run func(*testing.T, int) (any, func() int)) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	keep, completed := run(t, n)
	if got := completed(); got != n {
		t.Fatalf("%d requests: %d completed", n, got)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// runShardedFleet sends n model.Micro requests 100us apart into a batching
// two-device sharded fleet.
func runShardedFleet(t *testing.T, n int) (any, func() int) {
	c, err := NewSharded(Config{Seed: 1, Devices: twoDevices(), MaxBatch: 8}, Sharded)
	if err != nil {
		t.Fatal(err)
	}
	c.FrontEnv().ScheduleTrain(n, every(100*time.Microsecond), func() {
		if _, err := c.SubmitEvent(model.Micro, overload.Interactive); err != nil {
			t.Errorf("submit: %v", err)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	return c, func() int { return c.Stats().Completed }
}

// runLLMFleet sends n LLMTiny requests (prompt 32, output 4) 2ms apart into
// a one-prefill, one-decode fleet.
func runLLMFleet(t *testing.T, n int) (any, func() int) {
	c, err := NewLLM(LLMConfig{Seed: 1, Model: model.LLMTiny, PrefillReplicas: 1, DecodeReplicas: 1}, Sharded)
	if err != nil {
		t.Fatal(err)
	}
	c.FrontEnv().ScheduleTrain(n, every(2*time.Millisecond), func() {
		if _, err := c.SubmitEvent(overload.Interactive, 32, 4); err != nil {
			t.Errorf("submit: %v", err)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	return c, func() int { return c.Stats().Completed }
}

// every returns ScheduleTrain offsets gap apart: gap, 2*gap, ...
func every(gap time.Duration) func() sim.Duration {
	var at sim.Duration
	return func() sim.Duration {
		at += gap
		return at
	}
}

package cluster

import (
	"testing"
	"time"

	"olympian/internal/faults"
	"olympian/internal/gpu"
	"olympian/internal/model"
	"olympian/internal/overload"
)

// recycleScenario is a hedged, deadline-bound fleet with a stalling device
// and far more attempts than attempt records, so records and the serving
// requests they hold are reused while hedge losers are cancelled out of
// running batches. An Inception batch of 8 takes about as long as a batch of
// 1, so batches gather several riders: a cancelled loser leaves its batch
// running for the others, and its record reaches a device again before that
// batch ends. TestShardedEnginesBitIdentical runs it beside the pinned
// scenarios.
func recycleScenario() shardedScenario {
	return shardedScenario{
		name: "recycle",
		cfg: func() Config {
			return Config{
				Seed:    5,
				Devices: []gpu.Spec{gpu.GTX1080Ti, gpu.GTX1080Ti, gpu.GTX1080Ti},
				Faults: []*faults.Plan{
					nil,
					{StallEvery: 50 * time.Millisecond, StallDur: 10 * time.Millisecond},
					nil,
				},
				MaxBatch:     8,
				MaxQueue:     16,
				Deadline:     45 * time.Millisecond,
				HedgeDelay:   30 * time.Millisecond,
				BatchTimeout: 15 * time.Millisecond,
			}
		},
		models:  []string{model.Inception},
		classes: []overload.Class{overload.Interactive, overload.Batch},
		n:       120,
		gap:     5 * time.Millisecond,
	}
}

// TestShardedAttemptsRecycle checks that recycleScenario reaches what it is
// for: hedges whose losers are cancelled, stalls, deadline failures, and
// attempt records reused many times over, with every request settled once
// and every device-side request ended once.
func TestShardedAttemptsRecycle(t *testing.T) {
	sc := recycleScenario()
	c, err := NewSharded(sc.cfg(), Sharded)
	if err != nil {
		t.Fatal(err)
	}
	settled := make(map[int]int)
	c.OnSettle(func(r *ShardedRequest) { settled[r.ID]++ })
	driveSharded(t, c, sc)
	st := c.Stats()
	attempts := st.Requests + st.Hedges + st.Failovers
	t.Logf("%d attempts on %d records; %d hedges, %d canceled, %d stalls, %d expired, %d misses",
		attempts, len(c.free), st.Hedges, st.Degraded.Canceled, st.Degraded.DeviceStalls,
		st.Degraded.Expired, st.Degraded.DeadlineMisses)
	if st.Hedges == 0 || st.Degraded.Canceled == 0 || st.Degraded.DeviceStalls == 0 ||
		st.Degraded.Expired+st.Degraded.DeadlineMisses == 0 {
		t.Fatalf("scenario mistuned: %+v", st.Degraded)
	}
	if len(c.free) >= attempts/4 {
		t.Fatalf("%d attempt records for %d attempts: records were not recycled", len(c.free), attempts)
	}
	if st.Completed+st.Failed != st.Requests || len(settled) != st.Requests {
		t.Fatalf("%d requests, %d completed, %d failed, %d settled", st.Requests, st.Completed, st.Failed, len(settled))
	}
	for id, k := range settled {
		if k != 1 {
			t.Fatalf("request %d settled %d times", id, k)
		}
	}
	// A reused record that a finished batch completed as well would end
	// twice on its device and break the conservation identity there.
	for i, ds := range st.PerDevice {
		for class, n := range ds.Degraded.ByClass {
			if ended := n.Completed + n.Shed + n.Expired + n.Failed; ended != n.Submitted {
				t.Errorf("device %d class %d: %d submitted, %d ended", i, class, n.Submitted, ended)
			}
		}
	}
}

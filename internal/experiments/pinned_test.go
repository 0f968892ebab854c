package experiments

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"olympian/internal/cluster"
	"olympian/internal/obs"
	"olympian/internal/telemetry"
	"olympian/internal/workload"
)

// Hashes (fnv-64a) of the -quick overload experiment's telemetry timeline
// JSON and merged Prometheus exposition, recorded the way olympian-sim
// -timeline-out records them. They were taken while every counter was still
// a separately incremented series; reading counters off the Stats tallies
// must leave both byte-identical.
const (
	pinnedOverloadTimeline = 0x59fcb6b2b6b3d81e
	pinnedOverloadProm     = 0x4dedc6db85d886a9
)

func TestOverloadOutputsPinned(t *testing.T) {
	o := quickOpts()
	o.Obs = obs.NewRecorder()
	o.Obs.MuteLayer(obs.LayerGPU)
	o.Telemetry = &telemetry.Config{
		SLOs:  telemetry.DefaultServingSLOs(),
		Rules: telemetry.DefaultRules(),
	}
	r, err := Overload(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Timeline == nil {
		t.Fatal("overload produced no telemetry timeline")
	}
	var tl, prom bytes.Buffer
	if err := r.Timeline.WriteJSON(&tl); err != nil {
		t.Fatal(err)
	}
	if err := o.Obs.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if got := fnv64(tl.Bytes()); got != pinnedOverloadTimeline {
		t.Errorf("timeline JSON hash %#x, want %#x", got, uint64(pinnedOverloadTimeline))
	}
	if got := fnv64(prom.Bytes()); got != pinnedOverloadProm {
		t.Errorf("Prometheus exposition hash %#x, want %#x", got, uint64(pinnedOverloadProm))
	}
}

// Hashes (fnv-64a) of the paper path's modeled outputs at -quick size: the
// Fig 11 pair's per-client finish records and Olympian quantum records at
// seeds 1 and 2, and the rendered Fig 15 overflow report. They pin the
// gang-of-threads model (event order, in-flight window, overflow) against
// changes to the simulator's internals.
var pinnedFig11 = map[int64]struct{ finishes, quanta uint64 }{
	1: {0x5f60833456530c45, 0xadbae268e26ed823},
	2: {0xa610807883f2af25, 0x5bcb8712081c3a10},
}

const pinnedFig15Report = 0x94486012554214d8

func TestFig11PairPinned(t *testing.T) {
	for seed, want := range pinnedFig11 {
		o := quickOpts()
		o.Seed = seed
		o = o.withDefaults()
		clients := o.homogeneous(o.clients())
		results, err := o.runAll([]workload.RunSpec{
			{Config: workload.Config{Kind: workload.Vanilla}, Clients: clients},
			{Config: workload.Config{Kind: workload.Olympian, Quantum: o.quantum()}, Clients: clients},
		})
		if err != nil {
			t.Fatal(err)
		}
		var fin, qua bytes.Buffer
		for _, res := range results {
			for _, r := range res.Finishes.Records {
				fmt.Fprintf(&fin, "%s %d %s %d\n", res.Kind, r.Client, r.Model, r.Finish)
			}
		}
		for _, q := range results[1].Quanta {
			fmt.Fprintf(&qua, "%d %d %d %d %d %d %d\n",
				q.Client, q.JobID, q.Start, q.End, q.GPUDuration, q.OverflowKernels, q.ActiveJobs)
		}
		if got := fnv64(fin.Bytes()); got != want.finishes {
			t.Errorf("seed %d: finish records hash %#x, want %#x", seed, got, want.finishes)
		}
		if got := fnv64(qua.Bytes()); got != want.quanta {
			t.Errorf("seed %d: quantum records hash %#x, want %#x", seed, got, want.quanta)
		}
	}
}

func TestFig15ReportPinned(t *testing.T) {
	r, err := Fig15Overflow(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkReportPinned(t, r, pinnedFig15Report)
}

// pinnedExtMultiGPUReport hashes the rendered -quick ext-multigpu report
// (last finish, speedup, spread and placement at 1, 2 and 4 GPUs). It was
// recorded while the multi-device runs had their own closed-loop driver;
// running them as Run with a device count must leave it byte-identical.
const pinnedExtMultiGPUReport = 0x2c34971849e3d763

func TestExtMultiGPUReportPinned(t *testing.T) {
	r, err := ExtMultiGPU(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkReportPinned(t, r, pinnedExtMultiGPUReport)
}

// Hashes (fnv-64a) of the open-loop fleet experiments' rendered -quick
// reports, and of the sharded experiment's stats (its report carries
// wall-clock fields): the identity scenario's single-heap reference and an
// 8-device single-heap sweep. They were recorded while each experiment
// scheduled its own arrivals; feeding every train through
// invariant.DriveSharded/DriveLLM must leave them byte-identical.
const (
	pinnedClusterReport     = 0x05927289da40a917
	pinnedRecoveryReport    = 0x67d988c6fe1aa6f0
	pinnedLLMReport         = 0x09e9cb9b9f1585d2
	pinnedLLMOverloadReport = 0x6bc4cd7f63c223a0
	pinnedOverloadReport    = 0x4e9fd2ecf27bdeff
	pinnedShardedIdentity   = 0x839d5a218b1a7b36
	pinnedShardedSweep      = 0x778295be4de387b6
)

func TestShardedStatsPinned(t *testing.T) {
	ref, identical, deterministic, err := engineIdentity(func(engine cluster.Engine, workers int) (cluster.Stats, error) {
		return shardedIdentity(quickOpts(), engine, workers)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !identical || !deterministic {
		t.Fatalf("sharded identity scenario: engines identical = %v, rerun identical = %v", identical, deterministic)
	}
	if got := fnv64([]byte(fmt.Sprintf("%+v", ref))); got != pinnedShardedIdentity {
		t.Errorf("identity scenario stats hash %#x, want %#x\n%+v", got, uint64(pinnedShardedIdentity), ref)
	}
	st, _, err := shardedSweep(cluster.SingleHeap, 8, 20_000, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := fnv64([]byte(fmt.Sprintf("%+v", st))); got != pinnedShardedSweep {
		t.Errorf("8-device sweep stats hash %#x, want %#x\n%+v", got, uint64(pinnedShardedSweep), st)
	}
}

// checkReportPinned compares the fnv-64a hash of r's rendering with want.
func checkReportPinned(t *testing.T, r *Report, want uint64) {
	t.Helper()
	var b bytes.Buffer
	r.Fprint(&b)
	if got := fnv64(b.Bytes()); got != want {
		t.Errorf("%s report hash %#x, want %#x\n%s", r.ID, got, want, b.String())
	}
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

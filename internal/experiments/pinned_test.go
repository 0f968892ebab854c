package experiments

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

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
	var b bytes.Buffer
	r.Fprint(&b)
	if got := fnv64(b.Bytes()); got != pinnedFig15Report {
		t.Errorf("Fig 15 report hash %#x, want %#x\n%s", got, uint64(pinnedFig15Report), b.String())
	}
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
	var b bytes.Buffer
	r.Fprint(&b)
	if got := fnv64(b.Bytes()); got != pinnedExtMultiGPUReport {
		t.Errorf("ext-multigpu report hash %#x, want %#x\n%s", got, uint64(pinnedExtMultiGPUReport), b.String())
	}
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

package workload

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"olympian/internal/gpu"
	"olympian/internal/obs"
	"olympian/internal/profiler"
	"olympian/internal/trace"
)

// TestRunManyMatchesSerial is the parallel harness's determinism contract:
// for every scheduler kind and several seeds, RunMany must produce results
// byte-identical (finish times, quanta, intervals, counters) to running the
// same specs serially.
func TestRunManyMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-kind sweep is slow")
	}
	// Force real worker-pool parallelism even on single-core CI machines.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	kinds := []SchedulerKind{Vanilla, Olympian, WallClockSlicing, KernelSlicing}
	seeds := []int64{1, 7, 23}
	var specs []RunSpec
	for _, k := range kinds {
		for _, s := range seeds {
			specs = append(specs, RunSpec{
				Config:  Config{Seed: s, Kind: k},
				Clients: smallClients(3, 1),
			})
		}
	}

	serial := make([]*Result, len(specs))
	for i, sp := range specs {
		res, err := Run(sp.Config, sp.Clients)
		if err != nil {
			t.Fatalf("serial run %d (%v seed %d): %v", i, sp.Config.Kind, sp.Config.Seed, err)
		}
		serial[i] = res
	}

	outs := RunMany(specs)
	if len(outs) != len(specs) {
		t.Fatalf("%d outcomes for %d specs", len(outs), len(specs))
	}
	for i, out := range outs {
		sp := specs[i]
		if out.Err != nil {
			t.Fatalf("parallel run %d (%v seed %d): %v", i, sp.Config.Kind, sp.Config.Seed, out.Err)
		}
		if !reflect.DeepEqual(serial[i], out.Result) {
			t.Errorf("run %d (%v seed %d): parallel result differs from serial\nserial:   %+v\nparallel: %+v",
				i, sp.Config.Kind, sp.Config.Seed, serial[i], out.Result)
		}
	}
}

// TestRunManySharedStoreIsDeterministic runs concurrent specs against one
// shared profile store: pre-warmed profiles must make parallel results
// independent of scheduling order.
func TestRunManySharedStoreIsDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	store := profiler.NewStore()
	clients := smallClients(2, 1)
	refs := []ModelRef{clients[0].Ref()}
	if err := Profile(store, refs, gpu.GTX1080Ti, 900); err != nil {
		t.Fatal(err)
	}
	var specs []RunSpec
	for i := 0; i < 2*runtime.GOMAXPROCS(0)+2; i++ {
		specs = append(specs, RunSpec{
			Config:  Config{Seed: 5, Kind: Olympian, Profiles: store},
			Clients: clients,
		})
	}
	outs := RunMany(specs)
	res, err := Results(outs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res); i++ {
		if !reflect.DeepEqual(res[0], res[i]) {
			t.Fatalf("identical specs diverged: run 0 vs run %d", i)
		}
	}
	if store.Len() != 1 {
		t.Fatalf("store grew to %d entries during runs, want 1", store.Len())
	}
}

// TestRunManyRecordingMatchesSerialTrace: specs observed by one shared
// recorder run in parallel on child recorders; the spliced trace and
// metrics must be byte-identical to what a serial loop binding the shared
// recorder per run would have produced.
func TestRunManyRecordingMatchesSerialTrace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	build := func(rec *obs.Recorder) []RunSpec {
		var specs []RunSpec
		for i, k := range []SchedulerKind{Vanilla, Olympian, Vanilla} {
			specs = append(specs, RunSpec{
				Config:  Config{Seed: int64(i + 1), Kind: k, Obs: rec},
				Clients: smallClients(2, 1),
			})
		}
		return specs
	}
	render := func(rec *obs.Recorder) (string, string) {
		var tr, pm bytes.Buffer
		if err := trace.WriteLifecycleTimeline(&tr, rec.Trace(), nil); err != nil {
			t.Fatal(err)
		}
		if err := rec.Registry().WritePrometheus(&pm); err != nil {
			t.Fatal(err)
		}
		return tr.String(), pm.String()
	}

	serialRec := obs.NewRecorder()
	serialSpecs := build(serialRec)
	serial := make([]*Result, len(serialSpecs))
	for i, sp := range serialSpecs {
		res, err := Run(sp.Config, sp.Clients)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res
	}
	serialTrace, serialProm := render(serialRec)

	parRec := obs.NewRecorder()
	outs := RunMany(build(parRec))
	res, err := Results(outs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if !reflect.DeepEqual(serial[i], res[i]) {
			t.Errorf("run %d: recorded parallel result differs from serial", i)
		}
	}
	parTrace, parProm := render(parRec)
	if serialTrace != parTrace {
		t.Error("parallel-recorded lifecycle trace is not byte-identical to serial")
	}
	if serialProm != parProm {
		t.Errorf("parallel-recorded metrics differ from serial:\n%s\nvs\n%s", serialProm, parProm)
	}
}

func TestResultsSurfacesFirstErrorInOrder(t *testing.T) {
	outs := RunMany([]RunSpec{
		{Config: Config{Seed: 1, Kind: Vanilla}, Clients: smallClients(1, 1)},
		{Config: Config{Seed: 1, Kind: Vanilla}, Clients: nil}, // errors: no clients
		{Config: Config{Seed: 1, Kind: Vanilla}, Clients: []ClientSpec{{Model: "bogus", Batch: 1}}},
	})
	res, err := Results(outs)
	if err == nil {
		t.Fatal("expected an error")
	}
	if res[0] == nil {
		t.Fatal("successful run's result missing")
	}
	if want := "run 1: "; err.Error()[:len(want)] != want {
		t.Fatalf("first error should be run 1's, got %q", err)
	}
}

package workload

import (
	"bytes"
	"hash/fnv"
	"testing"

	"olympian/internal/faults"
	"olympian/internal/model"
	"olympian/internal/obs"
	"olympian/internal/telemetry"
)

// TestObservedRunCounters pins the metrics and telemetry bytes of a faulty,
// retry-starved closed-loop run and checks its counters against the Result
// tallies they read. The hashes (fnv-64a) were taken while every counter was
// still a separately incremented series.
func TestObservedRunCounters(t *testing.T) {
	const (
		pinnedTimeline = 0x61b66fd1a11d5f2e
		pinnedProm     = 0x2a0d197926cf7eed
	)
	rec := obs.NewRecorder()
	res, err := Run(Config{
		Seed:        3,
		Kind:        Olympian,
		Faults:      &faults.Plan{KernelFailRate: 0.05, AbortRate: 0.1},
		RetryBudget: 1,
		Obs:         rec,
		Telemetry:   &telemetry.Config{},
	}, []ClientSpec{
		{Model: model.Inception, Batch: 10, Batches: 4},
		{Model: model.Inception, Batch: 10, Batches: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded.BatchRetries == 0 || res.Degraded.RetryDenied == 0 || res.Degraded.KernelRetries == 0 {
		t.Fatalf("fault plan left a counter unexercised: %v", res.Degraded)
	}
	var tl, prom bytes.Buffer
	if err := res.Timeline.WriteJSON(&tl); err != nil {
		t.Fatal(err)
	}
	if err := rec.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if got := fnv64(tl.Bytes()); got != pinnedTimeline {
		t.Errorf("timeline JSON hash %#x, want %#x", got, uint64(pinnedTimeline))
	}
	if got := fnv64(prom.Bytes()); got != pinnedProm {
		t.Errorf("Prometheus exposition hash %#x, want %#x", got, uint64(pinnedProm))
	}
	snap := rec.Registry().Snapshot()
	for key, want := range map[string]int{
		"olympian_client_retries_total":                      res.Degraded.BatchRetries,
		"olympian_overload_retry_denied_total":               res.Degraded.RetryDenied,
		`olympian_executor_kernel_retries_total{device="0"}`: res.Degraded.KernelRetries,
		`olympian_gpu_kernels_total{device="0"}`:             res.Device.KernelsRun,
		`olympian_gpu_kernel_faults_total{device="0"}`:       res.Device.KernelFaults,
	} {
		if got, ok := snap[key]; !ok || got != float64(want) {
			t.Errorf("%s = %v (registered %v), Result tally = %d", key, got, ok, want)
		}
	}
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestSerialRunsSumCounters: successive runs bound to one recorder register
// their device, executor and client counters under the same labels, and the
// registry reports the sum, as it did when each run incremented one shared
// series.
func TestSerialRunsSumCounters(t *testing.T) {
	rec := obs.NewRecorder()
	var kernels, retries int
	for seed := int64(1); seed <= 2; seed++ {
		res, err := Run(Config{
			Seed:   seed,
			Kind:   Olympian,
			Faults: &faults.Plan{KernelFailRate: 0.05, AbortRate: 0.1},
			Obs:    rec,
		}, smallClients(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		kernels += res.Device.KernelsRun
		retries += res.Degraded.BatchRetries
	}
	snap := rec.Registry().Snapshot()
	if got := snap[`olympian_gpu_kernels_total{device="0"}`]; got != float64(kernels) {
		t.Errorf("kernels counter %v, want the two runs' sum %d", got, kernels)
	}
	if got := snap["olympian_client_retries_total"]; got != float64(retries) || retries == 0 {
		t.Errorf("client retries counter %v, want the two runs' sum %d (> 0)", got, retries)
	}
}

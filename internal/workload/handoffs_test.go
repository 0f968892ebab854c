package workload

import (
	"testing"
	"time"

	"olympian/internal/gpu"
	"olympian/internal/model"
	"olympian/internal/profiler"
)

// TestFig11HandoffsPerKernel pins the simulator's cost on the paper path:
// carrier switches per GPU kernel for the Fig 11 pair (10 closed-loop
// Inception clients x 4 jobs of batch 100, seed 1). A semaphore waiter whose
// slot was taken again before it could run is re-queued inside the event
// loop instead of being switched into, so each kernel costs little more than
// one switch for the gang thread that launched it.
func TestFig11HandoffsPerKernel(t *testing.T) {
	const seed = 1
	specs := make([]ClientSpec, 10)
	for i := range specs {
		specs[i] = ClientSpec{Model: model.Inception, Batch: 100, Batches: 4}
	}
	store := profiler.NewStore()
	if err := Profile(store, []ModelRef{specs[0].Ref()}, gpu.GTX1080Ti, seed+900); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cfg  Config
		most float64
	}{
		{Config{Seed: seed, Kind: Vanilla, Profiles: store}, 1.35},
		{Config{Seed: seed, Kind: Olympian, Quantum: 1200 * time.Microsecond, Profiles: store}, 1.45},
	} {
		res, err := Run(tc.cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		per := float64(res.Handoffs) / float64(res.Device.KernelsRun)
		t.Logf("%s: %d hand-offs, %d kernels, %.3f per kernel", res.Kind, res.Handoffs, res.Device.KernelsRun, per)
		if per > tc.most {
			t.Errorf("%s: %.3f hand-offs per kernel, want at most %.2f", res.Kind, per, tc.most)
		}
	}
}

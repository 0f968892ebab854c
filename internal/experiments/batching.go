package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"olympian/internal/invariant"
	"olympian/internal/metrics"
	"olympian/internal/model"
	"olympian/internal/overload"
	"olympian/internal/serving"
	"olympian/internal/sim"
)

// ExtBatching exercises the request-level serving front-end (TF-Serving's
// batching layer, paper §2): individual requests arrive open-loop and the
// batcher trades queueing delay for per-image efficiency. Small maximum
// batches saturate the GPU on per-kernel overheads; larger ones amortize
// them.
func ExtBatching(o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:    "ext-batching",
		Title: "Extension: request batching front-end (TF-Serving's batching layer)",
		Paper: "batching amortizes per-kernel overheads (paper §2 background)",
	}
	horizon := 4 * time.Second
	rate := 60.0 // requests per second
	if o.Quick {
		horizon = 1500 * time.Millisecond
		rate = 40
	}
	r.Headers = []string{"max batch", "requests", "batches", "mean size", "p50 latency", "p95 latency", "drained at"}
	var drains []time.Duration
	for _, maxBatch := range []int{1, 8, 32} {
		env := sim.NewEnv(o.Seed)
		srv, err := serving.NewServer(env, serving.Config{
			MaxBatch:     maxBatch,
			BatchTimeout: 5 * time.Millisecond,
			Seed:         o.Seed,
		}, env.Rand())
		if err != nil {
			return r, err
		}
		// Open-loop Poisson arrivals.
		rng := rand.New(rand.NewSource(o.Seed + 31))
		var arrivals []invariant.Arrival
		for t := time.Duration(0); ; {
			t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			if t >= horizon {
				break
			}
			arrivals = append(arrivals, invariant.Arrival{At: t, Model: model.Inception, Class: overload.Interactive})
		}
		serveArrivals(env, srv, arrivals)
		if err := env.Run(); err != nil {
			return nil, fmt.Errorf("ext-batching maxBatch=%d: %w", maxBatch, err)
		}
		drained := time.Duration(env.Now())
		env.Shutdown()
		st := srv.Stats()
		if vs := invariant.CheckServing(fmt.Sprintf("ext-batching-b%d", maxBatch), st); len(vs) > 0 {
			return nil, fmt.Errorf("ext-batching maxBatch=%d: request conservation violated: %v", maxBatch, vs)
		}
		r.AddRow(fmt.Sprintf("%d", maxBatch),
			fmt.Sprintf("%d", st.Requests), fmt.Sprintf("%d", st.Batches),
			fmt.Sprintf("%.1f", st.MeanBatchSize),
			fmt.Sprintf("%.0fms", st.P50*1e3), fmt.Sprintf("%.0fms", st.P95*1e3),
			metrics.FormatSeconds(drained))
		drains = append(drains, drained)
		r.SetMetric(fmt.Sprintf("p95_ms_b%d", maxBatch), st.P95*1e3)
	}
	first, last := drains[0], drains[len(drains)-1]
	r.AddNote("batching consolidates the same requests into fewer, larger jobs (fewer kernel launches and sessions) at comparable latency; drained %v vs %v", first, last)
	r.SetMetric("drain_ratio", first.Seconds()/last.Seconds())
	return r, nil
}

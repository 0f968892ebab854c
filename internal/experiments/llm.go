package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"olympian/internal/cluster"
	"olympian/internal/gpu"
	"olympian/internal/invariant"
	"olympian/internal/llm"
	"olympian/internal/model"
	"olympian/internal/overload"
)

// llmCell drives one LLM serving scenario: a prefill/decode-disaggregated
// fleet under a Poisson arrival train whose sequence dimensions are drawn
// from a length distribution. The arrival schedule (times and dimensions) is
// drawn from the cell's own RNG, apart from the fleet's streams, so every
// engine replays the identical workload.
type llmCell struct {
	dist     llm.LengthDist
	rate     float64 // arrivals per second
	requests int
	seed     int64
	starved  bool // shrink the decode pool's memory to force KV pressure
}

func (lc llmCell) config() cluster.LLMConfig {
	cfg := cluster.LLMConfig{
		Seed:            lc.seed,
		Model:           model.LLMTiny,
		PrefillReplicas: 1,
		DecodeReplicas:  2,
		MaxQueue:        512,
	}
	if lc.starved {
		weights, err := model.LLMWeightsBytes(model.LLMTiny)
		if err == nil {
			spec := gpu.GTX1080Ti
			spec.Name = "starved-decode"
			spec.MemoryBytes = weights + (768 << 10)
			cfg.DecodeSpec = spec
		}
	}
	return cfg
}

// run executes the cell on one engine and audits the quiesced fleet. The
// fleet is fault-free, so a rejected arrival is an error.
func (lc llmCell) run(engine cluster.Engine, workers int) (cluster.LLMClusterStats, []invariant.Violation, error) {
	cfg := lc.config()
	cfg.Workers = workers
	c, err := cluster.NewLLM(cfg, engine)
	if err != nil {
		return cluster.LLMClusterStats{}, nil, err
	}
	// Exponential gaps at the cell's rate, dimensions from the length
	// distribution.
	rng := rand.New(rand.NewSource(lc.seed ^ 0x6c6c6d))
	at := time.Duration(0)
	st, vs, err := invariant.DriveLLM(c, lc.requests, func() invariant.Arrival {
		at += time.Duration(rng.ExpFloat64() / lc.rate * float64(time.Second))
		p, o := lc.dist.Sample(rng)
		return invariant.Arrival{At: at, Class: overload.Batch, Prompt: p, Output: o}
	}, "")
	if err == nil && st.Requests != lc.requests {
		err = fmt.Errorf("llm: %d of %d arrivals rejected at routing", lc.requests-st.Requests, lc.requests)
	}
	return st, vs, err
}

// LLM measures the autoregressive serving plane: TTFT/TPOT percentiles and
// goodput across sequence-length distributions and a 0.5x→4x load sweep on a
// prefill/decode-disaggregated fleet, a KV-pressure cell that must preempt
// and degrade the token-latency tail without violating conservation, and an
// engine-identity probe.
func LLM(o Options) (*Report, error) {
	o = o.withDefaults()
	rep := &Report{
		ID:    "llm",
		Title: "LLM serving: KV cache, continuous batching, prefill/decode disaggregation",
		Paper: "Extension: token-level GPU scheduling — the Olympian quantum becomes the decode-step boundary; KV memory pressure must surface as TTFT/TPOT tail degradation, never as lost tokens",
		Headers: []string{
			"dist", "load", "completed", "shed", "preempt",
			"ttft p50/p95/p99 ms", "tpot p50/p99 ms", "goodput req/s", "tokens/s",
		},
	}

	requests := 600
	if o.Quick {
		requests = 250
	}
	// baseRate saturates the single prefill replica around 2.7x (llm-tiny
	// prefill of a ~130-token mean prompt ≈ 240µs), so the sweep spans
	// comfortable headroom to past-saturation shedding.
	const baseRate = 1500.0
	dists := []llm.LengthDist{
		{Name: "chat", PromptMin: 16, PromptMax: 256, OutputMin: 16, OutputMax: 128},
		{Name: "longdoc", PromptMin: 256, PromptMax: 768, OutputMin: 8, OutputMax: 48},
	}
	loads := []float64{0.5, 1, 2, 4}
	if o.Quick {
		loads = []float64{0.5, 2, 4}
	}

	violations := 0
	var probe llmCell
	ttftP99ByLoad := map[float64]float64{}
	for _, dist := range dists {
		for _, load := range loads {
			cell := llmCell{
				dist: dist, rate: baseRate * load,
				requests: requests, seed: o.Seed + 97,
			}
			probe = cell
			st, vs, err := cell.run(cluster.Sharded, 0)
			if err != nil {
				return nil, err
			}
			violations += len(vs)
			for _, v := range vs {
				rep.AddNote("INVARIANT VIOLATION (%s %.1fx): %s", dist.Name, load, v)
			}
			if dist.Name == "chat" {
				ttftP99ByLoad[load] = st.Tokens.TTFT.P99
			}
			ttftCell, tpotCell := "-", "-"
			if st.Tokens.TTFT.Ok() {
				ttftCell = fmt.Sprintf("%.1f/%.1f/%.1f", st.Tokens.TTFT.P50*1e3, st.Tokens.TTFT.P95*1e3, st.Tokens.TTFT.P99*1e3)
			}
			if st.Tokens.TPOT.Ok() {
				tpotCell = fmt.Sprintf("%.2f/%.2f", st.Tokens.TPOT.P50*1e3, st.Tokens.TPOT.P99*1e3)
			}
			rep.AddRow(
				dist.Name, fmt.Sprintf("%.1fx", load),
				fmt.Sprintf("%d", st.Completed), fmt.Sprintf("%d", st.Shed),
				fmt.Sprintf("%d", st.Preemptions),
				ttftCell, tpotCell,
				fmt.Sprintf("%.0f", st.Goodput),
				fmt.Sprintf("%.0f", st.TokensPerSec),
			)
		}
	}
	if lo, hi := ttftP99ByLoad[0.5], ttftP99ByLoad[4]; lo > 0 && hi > 0 {
		rep.AddNote("chat TTFT p99 grows %.1fx from 0.5x to 4x load", hi/lo)
		rep.SetMetric("ttft_p99_load_ratio", hi/lo)
	}

	// KV-pressure cell: the same chat workload at 1x against a decode pool
	// whose cache barely fits a few sequences. Preemption and queueing must
	// appear, the token-latency tail must degrade relative to the ample
	// fleet, and conservation must hold exactly throughout.
	ample := llmCell{dist: dists[0], rate: baseRate, requests: requests, seed: o.Seed + 97}
	tight := ample
	tight.starved = true
	ampleSt, ampleVs, err := ample.run(cluster.Sharded, 0)
	if err != nil {
		return nil, err
	}
	tightSt, tightVs, err := tight.run(cluster.Sharded, 0)
	if err != nil {
		return nil, err
	}
	violations += len(ampleVs) + len(tightVs)
	for _, v := range append(ampleVs, tightVs...) {
		rep.AddNote("INVARIANT VIOLATION (pressure cell): %s", v)
	}
	tpotRatio := 0.0
	if ampleSt.Tokens.TPOT.P99 > 0 {
		tpotRatio = tightSt.Tokens.TPOT.P99 / ampleSt.Tokens.TPOT.P99
	}
	rep.AddNote("kv pressure: %d preemptions, %d kv-exhausted failures; TPOT p99 %.2fms vs %.2fms ample (%.1fx); zero violations = %v",
		tightSt.Preemptions, tightSt.Failed, tightSt.Tokens.TPOT.P99*1e3, ampleSt.Tokens.TPOT.P99*1e3,
		tpotRatio, len(tightVs) == 0)
	rep.SetMetric("pressure_preemptions", float64(tightSt.Preemptions))
	rep.SetMetric("pressure_tpot_ratio", tpotRatio)
	rep.SetMetric("invariant_violations", float64(violations))

	// Engine identity on the hardest sweep cell: single-heap vs the
	// parallel engine at two worker counts, plus a same-seed rerun.
	ref, identical, deterministic, err := engineIdentity(func(engine cluster.Engine, workers int) (cluster.LLMClusterStats, error) {
		st, _, err := probe.run(engine, workers)
		return st, err
	})
	if err != nil {
		return nil, err
	}
	rep.AddNote("engine identity on %s 4x cell: sharded == single-heap = %v; same-seed rerun identical = %v (decision hash %x, %d transfers)",
		probe.dist.Name, identical, deterministic, ref.DecisionHash, ref.Transfers)
	rep.SetMetric("bit_identical", boolMetric(identical && deterministic))
	return rep, nil
}

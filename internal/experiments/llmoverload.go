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

// llmOverloadCell drives a disaggregated LLM fleet with the full overload
// plane armed — token-rate AIMD admission, TTFT deadlines, TPOT budgets,
// degraded-mode truncation, least-KV-pressure routing, and capacity retries —
// under a Poisson arrival train mixing ~30% interactive traffic into a batch
// base. The arrival schedule (times, dimensions, classes) is drawn from the
// cell's own RNG, apart from the fleet's streams, so every engine replays the
// identical workload.
type llmOverloadCell struct {
	dist     llm.LengthDist
	rate     float64 // arrivals per second
	requests int
	seed     int64
	ttftSLO  time.Duration
	tpotSLO  time.Duration
}

func (lc llmOverloadCell) config() cluster.LLMConfig {
	cfg := cluster.LLMConfig{
		Seed:            lc.seed,
		Model:           model.LLMTiny,
		PrefillReplicas: 2,
		DecodeReplicas:  2,
		MaxQueue:        16,
		Route:           cluster.LeastKVPressure,
		TTFTDeadline:    lc.ttftSLO,
		TPOTBudget:      lc.tpotSLO,
		Admission:       &overload.AIMDConfig{Initial: 2048, Min: 256, Max: 4096},
		KVWatermark:     0.85,
		DegradedTail:    8,
		MaxRetries:      3,
	}
	// A starved decode pool makes KV pressure — not raw compute — the
	// binding resource, so the congestion signal and degraded mode engage.
	if weights, err := model.LLMWeightsBytes(model.LLMTiny); err == nil {
		spec := gpu.GTX1080Ti
		spec.Name = "starved-decode"
		spec.MemoryBytes = weights + (768 << 10)
		cfg.DecodeSpec = spec
	}
	return cfg
}

// overloadTally is the per-request accounting the stats cannot reconstruct:
// interactive TTFT SLO attainment needs raw per-request latencies, not
// percentiles.
type overloadTally struct {
	interCompleted int
	interWithinSLO int
}

// run executes the cell on one engine and audits the quiesced fleet. The
// fleet is fault-free, so a rejected arrival is an error.
func (lc llmOverloadCell) run(engine cluster.Engine) (cluster.LLMClusterStats, overloadTally, []invariant.Violation, error) {
	c, err := cluster.NewLLM(lc.config(), engine)
	if err != nil {
		return cluster.LLMClusterStats{}, overloadTally{}, nil, err
	}
	rng := rand.New(rand.NewSource(lc.seed ^ 0x6f766c64))
	at := time.Duration(0)
	st, vs, err := invariant.DriveLLM(c, lc.requests, func() invariant.Arrival {
		at += time.Duration(rng.ExpFloat64() / lc.rate * float64(time.Second))
		p, o := lc.dist.Sample(rng)
		class := overload.Batch
		if rng.Float64() < 0.3 {
			class = overload.Interactive
		}
		return invariant.Arrival{At: at, Class: class, Prompt: p, Output: o}
	}, "")
	if err == nil && st.Requests != lc.requests {
		err = fmt.Errorf("llmoverload: %d of %d arrivals rejected at routing", lc.requests-st.Requests, lc.requests)
	}
	if err != nil {
		return cluster.LLMClusterStats{}, overloadTally{}, nil, err
	}
	var tally overloadTally
	for _, r := range c.Requests() {
		if r.Class != overload.Interactive || r.Err != nil {
			continue
		}
		tally.interCompleted++
		if ttft := r.TTFT(); ttft > 0 && ttft <= lc.ttftSLO {
			tally.interWithinSLO++
		}
	}
	return st, tally, vs, nil
}

// degradedTokens is the class's absorbed degradation: tokens lost to
// shed/expiry/failure plus tokens explicitly truncated by degraded mode.
func degradedTokens(pc cluster.LLMClassStats) int {
	return pc.LostTokens + pc.TruncatedTokens
}

// LLMOverload measures graceful degradation on the autoregressive plane: a
// 0.5x→4x token-load sweep against a KV-starved disaggregated fleet with the
// whole overload-control stack armed. Goodput must plateau (not collapse)
// past saturation, interactive TTFT p99 must stay inside its SLO while batch
// absorbs the degradation, token conservation must hold exactly, and both
// engines must agree bit-for-bit.
func LLMOverload(o Options) (*Report, error) {
	o = o.withDefaults()
	const ttftSLO = 25 * time.Millisecond
	const tpotSLO = 5 * time.Millisecond
	rep := &Report{
		ID:    "llmoverload",
		Title: "LLM overload control: token-rate admission, SLO-aware shedding, graceful degradation",
		Paper: "Extension: the Olympian admission question at token granularity — charge by predicted tokens, shed before the GPU queue grows, degrade batch budgets first, and keep interactive TTFT inside its SLO through 4x overload",
		Headers: []string{
			"load", "completed", "shed", "expired", "trunc-tok", "retries",
			"inter ttft p99 ms", "inter slo%", "batch absorb%", "goodput req/s",
		},
	}

	requests := 500
	if o.Quick {
		requests = 200
	}
	// baseRate saturates the starved decode pool just above 1x, so the sweep
	// spans headroom (0.5x) through deep overload (4x).
	const baseRate = 2500.0
	dist := llm.LengthDist{Name: "chat", PromptMin: 16, PromptMax: 256, OutputMin: 16, OutputMax: 128}
	loads := []float64{0.5, 1, 2, 4}

	violations := 0
	goodput := map[float64]float64{}
	var peak llmOverloadCell
	var peakSt cluster.LLMClusterStats
	var peakTally overloadTally
	for _, load := range loads {
		cell := llmOverloadCell{
			dist: dist, rate: baseRate * load, requests: requests,
			seed: o.Seed + 211, ttftSLO: ttftSLO, tpotSLO: tpotSLO,
		}
		st, tally, vs, err := cell.run(cluster.Sharded)
		if err != nil {
			return nil, err
		}
		violations += len(vs)
		for _, v := range vs {
			rep.AddNote("INVARIANT VIOLATION (%.1fx): %s", load, v)
		}
		goodput[load] = st.Goodput
		if load == loads[len(loads)-1] {
			peak, peakSt, peakTally = cell, st, tally
		}
		inter := st.PerClass[overload.Interactive]
		sloFrac, absorbFrac := 0.0, 0.0
		if tally.interCompleted > 0 {
			sloFrac = float64(tally.interWithinSLO) / float64(tally.interCompleted)
		}
		if total := degradedTokens(st.PerClass[overload.Batch]) + degradedTokens(inter); total > 0 {
			absorbFrac = float64(degradedTokens(st.PerClass[overload.Batch])) / float64(total)
		}
		rep.AddRow(
			fmt.Sprintf("%.1fx", load),
			fmt.Sprintf("%d", st.Completed), fmt.Sprintf("%d", st.Shed),
			fmt.Sprintf("%d", st.Expired), fmt.Sprintf("%d", st.TruncatedTokens),
			fmt.Sprintf("%d", st.Retries),
			fmt.Sprintf("%.1f", inter.TTFT.P99*1e3),
			fmt.Sprintf("%.0f%%", sloFrac*100),
			fmt.Sprintf("%.0f%%", absorbFrac*100),
			fmt.Sprintf("%.0f", st.Goodput),
		)
	}

	// Graceful degradation: goodput at 4x must hold ≥90% of the sweep's peak
	// — overload control turns excess load into sheds, not collapse.
	maxGoodput := 0.0
	for _, g := range goodput {
		if g > maxGoodput {
			maxGoodput = g
		}
	}
	plateau := 0.0
	if maxGoodput > 0 {
		plateau = goodput[4] / maxGoodput
	}
	rep.AddNote("goodput plateau: %.0f req/s at 4x vs %.0f peak (ratio %.2f, want ≥0.90)", goodput[4], maxGoodput, plateau)
	rep.SetMetric("plateau_ratio", plateau)

	// Class isolation at 4x: interactive completions keep their TTFT SLO
	// while the batch class absorbs the shed and truncated tokens.
	interSLO := 0.0
	if peakTally.interCompleted > 0 {
		interSLO = float64(peakTally.interWithinSLO) / float64(peakTally.interCompleted)
	}
	batchDeg := degradedTokens(peakSt.PerClass[overload.Batch])
	totalDeg := batchDeg + degradedTokens(peakSt.PerClass[overload.Interactive])
	absorb := 0.0
	if totalDeg > 0 {
		absorb = float64(batchDeg) / float64(totalDeg)
	}
	interTTFT := peakSt.PerClass[overload.Interactive].TTFT.P99
	rep.AddNote("4x overload: interactive TTFT p99 %.1fms (SLO %.0fms), %.0f%% of interactive completions inside SLO; batch absorbs %.0f%% of %d degraded tokens (%d truncated)",
		interTTFT*1e3, ttftSLO.Seconds()*1e3, interSLO*100, absorb*100, totalDeg, peakSt.TruncatedTokens)
	rep.SetMetric("interactive_ttft_p99_ms", interTTFT*1e3)
	rep.SetMetric("interactive_ttft_slo_attainment", interSLO)
	rep.SetMetric("batch_absorb_frac", absorb)
	rep.SetMetric("batch_truncated_tokens", float64(peakSt.PerClass[overload.Batch].TruncatedTokens))
	rep.SetMetric("interactive_truncated_tokens", float64(peakSt.PerClass[overload.Interactive].TruncatedTokens))
	rep.SetMetric("retries", float64(peakSt.Retries))
	rep.SetMetric("invariant_violations", float64(violations))

	// Engine identity on the 4x cell: single-heap vs the sharded engine,
	// plus a same-seed rerun.
	ref, identical, deterministic, err := engineIdentity(func(engine cluster.Engine) (cluster.LLMClusterStats, error) {
		st, _, _, err := peak.run(engine)
		return st, err
	})
	if err != nil {
		return nil, err
	}
	rep.AddNote("engine identity on the 4x cell: sharded == single-heap = %v; same-seed rerun identical = %v (decision hash %x)",
		identical, deterministic, ref.DecisionHash)
	rep.SetMetric("bit_identical", boolMetric(identical && deterministic))
	return rep, nil
}

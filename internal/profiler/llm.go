// LLM cost profiling: fit the prefill and decode cost curves of an
// autoregressive model on a target device spec by measurement, the same way
// the graph profiler calibrates CNN kernels (paper §4.4 idiom: profile a few
// operating points offline, fit a linear model, predict the rest).
//
// Prefill cost is linear in the prompt length; a fused decode step is linear
// in both batch width and resident KV tokens. The profiler runs a handful of
// calibration kernels on a scratch simulated device — so launch latency and
// clock scaling are folded into the observations exactly as a real profiler
// would see them — and least-squares fits the curves back out. The serving
// layer uses the fits for scheduling decisions (time-budgeted batch growth,
// cost-weighted routing debt), never for ground-truth kernel durations.
package profiler

import (
	"fmt"
	"time"

	"olympian/internal/gpu"
	"olympian/internal/model"
	"olympian/internal/sim"
)

// LLMProfile holds the fitted cost curves of one LLM on one device spec.
type LLMProfile struct {
	// Model is the profiled LLM; Spec the device it was profiled on.
	Model string
	Spec  string

	prefill linFit // seconds vs prompt tokens

	decodeBase   float64 // seconds
	decodePerSeq float64 // seconds per sequence
	decodePerKV  float64 // seconds per resident KV token
}

// ProfileLLM measures an LLM's prefill and decode kernels on a scratch
// device of the given spec and fits the cost curves. Deterministic: the
// scratch environment is seeded by the caller's seed and injects no faults.
func ProfileLLM(name string, spec gpu.Spec, seed int64) (*LLMProfile, error) {
	if !model.IsLLM(name) {
		return nil, fmt.Errorf("profiler: %q is not an LLM", name)
	}
	// Calibration points: a prefill sweep over prompt tokens, then a decode
	// grid whose three corners solve the two-regressor plane exactly for a
	// linear truth (and least-squares-approximate any other).
	tokens := []int{32, 128, 512}
	type pt struct{ seqs, kv int }
	grid := []pt{{1, 256}, {1, 4096}, {8, 256}}
	durs := make([]time.Duration, 0, len(tokens)+len(grid))
	for _, tk := range tokens {
		d, err := model.LLMPrefillTime(name, tk)
		if err != nil {
			return nil, fmt.Errorf("profiler: llm calibration for %s: %w", name, err)
		}
		durs = append(durs, d)
	}
	for _, g := range grid {
		d, err := model.LLMDecodeStepTime(name, g.seqs, g.kv)
		if err != nil {
			return nil, fmt.Errorf("profiler: llm calibration for %s: %w", name, err)
		}
		durs = append(durs, d)
	}

	// Run the calibration kernels back to back, each observed from its
	// start to its completion (launch + scaled execution).
	env := sim.NewEnv(seed)
	spec.StreamBias = 0 // calibration wants the bare kernel cost
	dev := gpu.New(env, spec, env.Rand())
	obs := make([]float64, 0, len(durs))
	var (
		k      *gpu.Kernel
		start  sim.Time
		runErr error
		next   func()
	)
	launch := func() {
		start = env.Now()
		k = dev.Start(gpu.Kernel{Owner: 0, Duration: durs[len(obs)], Occupancy: 1})
		k.Done.Subscribe(next)
	}
	next = func() {
		if runErr = dev.Reap(k); runErr != nil {
			return
		}
		obs = append(obs, time.Duration(env.Now()-start).Seconds())
		if len(obs) < len(durs) {
			launch()
		}
	}
	launch()
	err := env.Run()
	env.Shutdown()
	if err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, fmt.Errorf("profiler: llm calibration for %s: %w", name, runErr)
	}

	prof := &LLMProfile{Model: name, Spec: spec.Name}
	xs := make([]float64, len(tokens))
	for i, tk := range tokens {
		xs[i] = float64(tk)
	}
	prof.prefill = fitLine(xs, obs[:len(tokens)])
	dec := obs[len(tokens):]
	prof.decodePerKV = (dec[1] - dec[0]) / float64(grid[1].kv-grid[0].kv)
	prof.decodePerSeq = (dec[2] - dec[0]) / float64(grid[2].seqs-grid[0].seqs)
	prof.decodeBase = dec[0] - prof.decodePerKV*float64(grid[0].kv) - prof.decodePerSeq*float64(grid[0].seqs)
	return prof, nil
}

// Prefill predicts the on-device wall time of one prefill pass over the
// given prompt tokens.
func (p *LLMProfile) Prefill(tokens int) time.Duration {
	if tokens < 1 {
		tokens = 1
	}
	s := p.prefill.at(float64(tokens))
	if s < 1e-6 {
		s = 1e-6
	}
	return time.Duration(s * float64(time.Second))
}

// DecodeStep predicts the on-device wall time of one fused decode step over
// seqs sequences holding kvTokens cached tokens in total.
func (p *LLMProfile) DecodeStep(seqs, kvTokens int) time.Duration {
	if seqs < 1 {
		seqs = 1
	}
	if kvTokens < 0 {
		kvTokens = 0
	}
	s := p.decodeBase + p.decodePerSeq*float64(seqs) + p.decodePerKV*float64(kvTokens)
	if s < 1e-6 {
		s = 1e-6
	}
	return time.Duration(s * float64(time.Second))
}

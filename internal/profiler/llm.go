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

// llmCalibration runs one kernel of the given duration on the scratch device
// and returns the observed wall time (launch + scaled execution).
func llmCalibrate(p *sim.Proc, dev *gpu.Device, d time.Duration) (time.Duration, error) {
	start := p.Now()
	if err := dev.Exec(p, gpu.Kernel{Owner: 0, Duration: d, Occupancy: 1}); err != nil {
		return 0, err
	}
	return time.Duration(p.Now() - start), nil
}

// ProfileLLM measures an LLM's prefill and decode kernels on a scratch
// device of the given spec and fits the cost curves. Deterministic: the
// scratch environment is seeded by the caller's seed and injects no faults.
func ProfileLLM(name string, spec gpu.Spec, seed int64) (*LLMProfile, error) {
	if !model.IsLLM(name) {
		return nil, fmt.Errorf("profiler: %q is not an LLM", name)
	}
	env := sim.NewEnv(seed)
	spec.StreamBias = 0 // calibration wants the bare kernel cost
	dev := gpu.New(env, spec)

	prof := &LLMProfile{Model: name, Spec: spec.Name}
	var runErr error
	env.Go("llm-profiler", func(p *sim.Proc) {
		// Prefill sweep: observed time vs prompt tokens.
		tokens := []int{32, 128, 512}
		xs := make([]float64, 0, len(tokens))
		ys := make([]float64, 0, len(tokens))
		for _, tk := range tokens {
			d, err := model.LLMPrefillTime(name, tk)
			if err != nil {
				runErr = err
				return
			}
			obs, err := llmCalibrate(p, dev, d)
			if err != nil {
				runErr = err
				return
			}
			xs = append(xs, float64(tk))
			ys = append(ys, obs.Seconds())
		}
		prof.prefill = fitLine(xs, ys)

		// Decode grid: three corners solve the two-regressor plane exactly
		// for a linear truth (and least-squares-approximate any other).
		type pt struct{ seqs, kv int }
		grid := []pt{{1, 256}, {1, 4096}, {8, 256}}
		obs := make([]float64, len(grid))
		for i, g := range grid {
			d, err := model.LLMDecodeStepTime(name, g.seqs, g.kv)
			if err != nil {
				runErr = err
				return
			}
			o, err := llmCalibrate(p, dev, d)
			if err != nil {
				runErr = err
				return
			}
			obs[i] = o.Seconds()
		}
		prof.decodePerKV = (obs[1] - obs[0]) / float64(grid[1].kv-grid[0].kv)
		prof.decodePerSeq = (obs[2] - obs[0]) / float64(grid[2].seqs-grid[0].seqs)
		prof.decodeBase = obs[0] - prof.decodePerKV*float64(grid[0].kv) - prof.decodePerSeq*float64(grid[0].seqs)
	})
	err := env.Run()
	env.Shutdown()
	if err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, fmt.Errorf("profiler: llm calibration for %s: %w", name, runErr)
	}
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

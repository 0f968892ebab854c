package llm

import "math/rand"

// LengthDist draws a request's sequence dimensions: prompt length and output
// budget, uniform over inclusive ranges. The llm experiment sweeps these
// shapes; draws come from one seeded stream on the cluster front-end so both
// engines see the identical workload.
type LengthDist struct {
	// Name labels the distribution in reports.
	Name string
	// PromptMin/PromptMax bound the prompt length in tokens.
	PromptMin, PromptMax int
	// OutputMin/OutputMax bound the generation budget in tokens.
	OutputMin, OutputMax int
}

// Sample draws one (prompt, output) pair.
func (d LengthDist) Sample(rng *rand.Rand) (prompt, output int) {
	prompt = drawRange(rng, d.PromptMin, d.PromptMax)
	output = drawRange(rng, d.OutputMin, d.OutputMax)
	return prompt, output
}

func clampMin(lo int) int {
	if lo < 1 {
		return 1
	}
	return lo
}

func clampMax(lo, hi int) int {
	lo = clampMin(lo)
	if hi < lo {
		return lo
	}
	return hi
}

func drawRange(rng *rand.Rand, lo, hi int) int {
	lo = clampMin(lo)
	hi = clampMax(lo, hi)
	if hi == lo {
		return lo
	}
	return lo + rng.Intn(hi-lo+1)
}

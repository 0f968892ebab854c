// Autoregressive model class: decoder-only LLMs served token by token.
//
// A CNN in the zoo is a fixed dataflow graph — one pass per request. An LLM
// request instead runs one *prefill* pass over the whole prompt, then one
// *decode* pass per generated token, and the decode passes of concurrent
// requests are fused into a single batched kernel per step (continuous
// batching). Simulating every one of the ~10k real kernels per step would
// drown the event heap, so the class models each pass as one fused kernel
// whose duration follows the standard roofline shape:
//
//	prefill(p tokens)          = base + perTok·p            (compute-bound)
//	decode(s seqs, k KV toks)  = base + perSeq·s + perKV·k  (bandwidth-bound)
//
// The decode base term is the weight-streaming cost — every step reads all
// weights once regardless of batch size, which is exactly why continuous
// batching pays: the base amortizes over the sequences sharing the step.
// Durations are reference-platform (ClockScale 1.0) values; gpu.Device
// divides by the target's clock scale on execution, and the profiler fits
// these curves back out of observed kernel times on the target spec.
package model

import (
	"fmt"
	"time"
)

// Canonical LLM names.
const (
	// LLM1B is a ~1B-parameter decoder in half precision.
	LLM1B = "llm-1b"
	// LLM3B is a ~3B-parameter decoder in half precision.
	LLM3B = "llm-3b"
	// LLMTiny is a deliberately small synthetic LLM for tests and benchmarks
	// that push many requests through a fleet: microsecond-scale kernels and
	// a 2 KiB/token KV footprint keep event counts and memory pressure
	// configurable. It is a test-scale artifact, not a calibrated model.
	LLMTiny = "llm-tiny"
)

// llmDef holds one LLM's calibration constants.
type llmDef struct {
	// weightsBytes is the resident parameter footprint on device.
	weightsBytes int64
	// kvBytesPerToken is the attention-cache footprint per cached token
	// (2 · layers · hidden · bytes-per-element).
	kvBytesPerToken int64

	prefillBase   time.Duration // fixed per-pass overhead
	prefillPerTok time.Duration // compute cost per prompt token

	decodeBase   time.Duration // weight-streaming cost per step
	decodePerSeq time.Duration // per-sequence sampling/attention overhead
	decodePerKV  time.Duration // cache-read cost per resident KV token
}

// llmDefs is the autoregressive zoo, keyed by name.
var llmDefs = map[string]llmDef{
	LLM1B: {
		weightsBytes:    5 << 29, // 2.5 GiB
		kvBytesPerToken: 128 << 10,
		prefillBase:     300 * time.Microsecond,
		prefillPerTok:   200 * time.Microsecond,
		decodeBase:      5 * time.Millisecond,
		decodePerSeq:    60 * time.Microsecond,
		decodePerKV:     250 * time.Nanosecond,
	},
	LLM3B: {
		weightsBytes:    6 << 30,
		kvBytesPerToken: 224 << 10,
		prefillBase:     500 * time.Microsecond,
		prefillPerTok:   520 * time.Microsecond,
		decodeBase:      12 * time.Millisecond,
		decodePerSeq:    110 * time.Microsecond,
		decodePerKV:     500 * time.Nanosecond,
	},
	LLMTiny: {
		weightsBytes:    64 << 20,
		kvBytesPerToken: 2 << 10,
		prefillBase:     40 * time.Microsecond,
		prefillPerTok:   1500 * time.Nanosecond,
		decodeBase:      20 * time.Microsecond,
		decodePerSeq:    2 * time.Microsecond,
		decodePerKV:     8 * time.Nanosecond,
	},
}

// IsLLM reports whether the name denotes an autoregressive model (including
// LLMTiny).
func IsLLM(name string) bool {
	_, ok := llmDefs[name]
	return ok
}

func llmDefFor(name string) (llmDef, error) {
	d, ok := llmDefs[name]
	if !ok {
		return llmDef{}, fmt.Errorf("model: unknown LLM %q", name)
	}
	return d, nil
}

// LLMWeightsBytes returns the resident parameter footprint of an LLM.
func LLMWeightsBytes(name string) (int64, error) {
	d, err := llmDefFor(name)
	if err != nil {
		return 0, err
	}
	return d.weightsBytes, nil
}

// LLMKVBytesPerToken returns the attention-cache footprint per cached token.
func LLMKVBytesPerToken(name string) (int64, error) {
	d, err := llmDefFor(name)
	if err != nil {
		return 0, err
	}
	return d.kvBytesPerToken, nil
}

// LLMPrefillTime returns the reference-platform duration of one prefill pass
// over the given number of prompt tokens (recomputation after preemption
// passes prompt+generated).
func LLMPrefillTime(name string, tokens int) (time.Duration, error) {
	d, err := llmDefFor(name)
	if err != nil {
		return 0, err
	}
	if tokens < 1 {
		tokens = 1
	}
	return d.prefillBase + time.Duration(tokens)*d.prefillPerTok, nil
}

// LLMDecodeStepTime returns the reference-platform duration of one fused
// decode step over seqs concurrent sequences with kvTokens total cached
// tokens across them.
func LLMDecodeStepTime(name string, seqs, kvTokens int) (time.Duration, error) {
	d, err := llmDefFor(name)
	if err != nil {
		return 0, err
	}
	if seqs < 1 {
		seqs = 1
	}
	if kvTokens < 0 {
		kvTokens = 0
	}
	return d.decodeBase + time.Duration(seqs)*d.decodePerSeq + time.Duration(kvTokens)*d.decodePerKV, nil
}

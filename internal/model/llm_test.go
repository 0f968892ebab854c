package model

import (
	"testing"
	"time"
)

func TestLLMNamesAndLookup(t *testing.T) {
	for _, name := range []string{LLM1B, LLM3B} {
		if !IsLLM(name) {
			t.Fatalf("%q not IsLLM", name)
		}
		w, err := LLMWeightsBytes(name)
		if err != nil || w <= 0 {
			t.Fatalf("LLMWeightsBytes(%q) = %d, %v", name, w, err)
		}
		kv, err := LLMKVBytesPerToken(name)
		if err != nil || kv <= 0 {
			t.Fatalf("LLMKVBytesPerToken(%q) = %d, %v", name, kv, err)
		}
	}
	if !IsLLM(LLMTiny) {
		t.Fatalf("LLMTiny must be IsLLM")
	}
	if IsLLM(Inception) || IsLLM("nonesuch") {
		t.Fatalf("IsLLM must reject non-LLM names")
	}
	if _, err := LLMPrefillTime("nonesuch", 8); err == nil {
		t.Fatalf("unknown LLM must error")
	}
}

func TestLLMCostsScaleWithDimensions(t *testing.T) {
	for _, name := range []string{LLM1B, LLM3B, LLMTiny} {
		p64, _ := LLMPrefillTime(name, 64)
		p512, _ := LLMPrefillTime(name, 512)
		if p512 <= p64 {
			t.Fatalf("%s: prefill must grow with prompt length (%v vs %v)", name, p64, p512)
		}
		d1, _ := LLMDecodeStepTime(name, 1, 128)
		d8, _ := LLMDecodeStepTime(name, 8, 128)
		dKV, _ := LLMDecodeStepTime(name, 1, 4096)
		if d8 <= d1 || dKV <= d1 {
			t.Fatalf("%s: decode step must grow with batch and KV (%v, %v, %v)", name, d1, d8, dKV)
		}
		// Continuous batching must pay: 8 sequences sharing a step must cost
		// far less than 8 solo steps, because the weight-streaming base
		// amortizes.
		if d8 >= 8*d1 {
			t.Fatalf("%s: batched decode step not cheaper than solo steps", name)
		}
	}
}

func TestLLMDecodeStepClampsInputs(t *testing.T) {
	d0, err := LLMDecodeStepTime(LLMTiny, 0, -5)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := LLMDecodeStepTime(LLMTiny, 1, 0)
	if d0 != d1 {
		t.Fatalf("clamped decode step mismatch: %v vs %v", d0, d1)
	}
	p0, _ := LLMPrefillTime(LLMTiny, 0)
	p1, _ := LLMPrefillTime(LLMTiny, 1)
	if p0 != p1 || p0 < time.Microsecond {
		t.Fatalf("clamped prefill mismatch: %v vs %v", p0, p1)
	}
}

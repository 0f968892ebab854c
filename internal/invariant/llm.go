package invariant

import (
	"fmt"

	"olympian/internal/cluster"
	"olympian/internal/serving"
)

// CheckLLMServing audits one LLM replica's stats after its run quiesced:
// request conservation across the four terminal states, token conservation
// between the device counter and the per-request sums, and KV-cache
// quiescence (a leaked block means some sequence was never released).
func CheckLLMServing(scope string, st serving.LLMStats) []Violation {
	var vs []Violation
	if got := st.Completed + st.HandedOff + st.Failed + st.Shed + st.Expired; got != st.Requests {
		vs = append(vs, violatef("llm-serving-conservation",
			"%s: %d requests but completed %d + handed off %d + failed %d + shed %d + expired %d = %d",
			scope, st.Requests, st.Completed, st.HandedOff, st.Failed, st.Shed, st.Expired, got))
	}
	if st.TruncatedTokens > 0 && st.Truncated == 0 {
		vs = append(vs, violatef("llm-truncate-accounting",
			"%s: %d truncated tokens with no truncated sequences", scope, st.TruncatedTokens))
	}
	if st.Truncated > 0 && st.TruncatedTokens < st.Truncated {
		vs = append(vs, violatef("llm-truncate-accounting",
			"%s: %d truncated sequences cut only %d tokens", scope, st.Truncated, st.TruncatedTokens))
	}
	if st.TokensEmitted != st.EmittedByRequests {
		vs = append(vs, violatef("llm-token-conservation",
			"%s: device emitted %d tokens but terminal requests account for %d",
			scope, st.TokensEmitted, st.EmittedByRequests))
	}
	if st.KV.BlocksInUse != 0 || st.KV.Seqs != 0 {
		vs = append(vs, violatef("llm-kv-leak",
			"%s: kv cache not quiescent: %d blocks held by %d sequences",
			scope, st.KV.BlocksInUse, st.KV.Seqs))
	}
	if st.PartialTokens > 0 && st.Partial == 0 {
		vs = append(vs, violatef("llm-partial-accounting",
			"%s: %d partial tokens with no partial requests", scope, st.PartialTokens))
	}
	return vs
}

// CheckLLMStats audits a quiesced disaggregated fleet's aggregate stats:
// every request settled exactly once, every delivered token emitted exactly
// once fleet-wide (Σ device TokensEmitted == Σ request TokensOut — a
// recompute after failover rebuilds KV but re-emits nothing), and each
// replica conserves its own arrivals and tokens.
func CheckLLMStats(st cluster.LLMClusterStats) []Violation {
	var vs []Violation
	if got := st.Completed + st.Failed + st.Shed + st.Expired; got != st.Requests {
		vs = append(vs, violatef("llm-cluster-conservation",
			"%d requests but %d completed + %d failed + %d shed + %d expired = %d settled",
			st.Requests, st.Completed, st.Failed, st.Shed, st.Expired, got))
	}
	if st.TokensEmitted != st.TokensDelivered {
		vs = append(vs, violatef("llm-cluster-token-conservation",
			"devices emitted %d tokens but requests were delivered %d",
			st.TokensEmitted, st.TokensDelivered))
	}
	devTrunc := 0
	for _, ds := range st.PerDevice {
		devTrunc += ds.TruncatedTokens
	}
	if devTrunc != st.TruncatedTokens {
		vs = append(vs, violatef("llm-truncate-conservation",
			"devices cut %d budget tokens but settled requests carry %d",
			devTrunc, st.TruncatedTokens))
	}
	classSettled := 0
	for _, pc := range st.PerClass {
		classSettled += pc.Completed + pc.Failed + pc.Shed + pc.Expired
	}
	if settled := st.Completed + st.Failed + st.Shed + st.Expired; classSettled != settled {
		vs = append(vs, violatef("llm-class-conservation",
			"per-class settlements sum to %d, fleet settled %d", classSettled, settled))
	}
	if st.Revives > st.Crashes {
		vs = append(vs, violatef("revive-count", "%d revives exceed %d crashes", st.Revives, st.Crashes))
	}
	if st.PartialTokens > 0 && st.Partial == 0 {
		vs = append(vs, violatef("llm-partial-accounting",
			"cluster reports %d partial tokens with no partial requests", st.PartialTokens))
	}
	for i, ds := range st.PerDevice {
		vs = append(vs, CheckLLMServing(fmt.Sprintf("device %d", i), ds)...)
	}
	return vs
}

// CheckLLM audits a quiesced fleet beyond its stats: no dispatch attempt in
// flight and no router slot held. DriveLLM adds the per-request rules, which
// it runs as each request settles.
func CheckLLM(c *cluster.LLMCluster, st cluster.LLMClusterStats) []Violation {
	return append(CheckLLMStats(st), quiesced(c.OutstandingAttempts(), c.Router(), c.Devices())...)
}

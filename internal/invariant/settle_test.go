package invariant

import (
	"errors"
	"reflect"
	"testing"

	"olympian/internal/cluster"
)

// rules lists the rule of each violation, in order.
func rules(vs []Violation) []string {
	var rs []string
	for _, v := range vs {
		rs = append(rs, v.Rule)
	}
	return rs
}

// TestSettleAuditCatchesPlantedRequests feeds the settle audit hand-built
// requests and stats: each per-request rule must fire on exactly its bad
// input, and none on the good one.
func TestSettleAuditCatchesPlantedRequests(t *testing.T) {
	errFailed := errors.New("failed")
	llmReq := func(output, tokens, truncated int, err error) *cluster.LLMRequest {
		r := &cluster.LLMRequest{OutputTokens: output, TokensOut: tokens, Truncated: truncated}
		r.Err = err
		return r
	}
	// A full completion, a completion degraded mode cut by 3 tokens, and a
	// failure that delivered 2 tokens first: 15 tokens in all.
	good := []*cluster.LLMRequest{llmReq(8, 8, 0, nil), llmReq(8, 5, 3, nil), llmReq(8, 2, 0, errFailed)}
	goodStats := cluster.LLMClusterStats{Requests: 3, Completed: 2, Failed: 1, TokensDelivered: 15}
	with := func(i int, r *cluster.LLMRequest) []*cluster.LLMRequest {
		reqs := append([]*cluster.LLMRequest(nil), good...)
		reqs[i] = r
		return reqs
	}
	audit := func(reqs []*cluster.LLMRequest, st cluster.LLMClusterStats) []Violation {
		var a settleAudit
		for _, r := range reqs {
			a.llm(r)
		}
		return a.check(st.Requests, st.Completed, st.Failed+st.Shed+st.Expired, st.TokensDelivered)
	}
	if vs := audit(good, goodStats); len(vs) != 0 {
		t.Fatalf("false positives: %v", vs)
	}
	stats := func(mutate func(*cluster.LLMClusterStats)) cluster.LLMClusterStats {
		st := goodStats
		mutate(&st)
		return st
	}
	for _, tc := range []struct {
		rule string
		reqs []*cluster.LLMRequest
		st   cluster.LLMClusterStats
	}{
		// The failure delivered 3 tokens of a budget cut to 2.
		{"llm-over-generation", with(2, llmReq(8, 3, 6, errFailed)),
			stats(func(s *cluster.LLMClusterStats) { s.TokensDelivered = 16 })},
		// A completion one token short of its budget.
		{"llm-under-generation", with(0, llmReq(8, 7, 0, nil)),
			stats(func(s *cluster.LLMClusterStats) { s.TokensDelivered = 14 })},
		{"llm-delivery-tally", good, stats(func(s *cluster.LLMClusterStats) { s.TokensDelivered = 16 })},
		{"retained-mismatch", good, stats(func(s *cluster.LLMClusterStats) { s.Completed, s.Failed = 3, 0 })},
		// Shed and expired requests also end in an error.
		{"retained-mismatch", good, stats(func(s *cluster.LLMClusterStats) { s.Failed, s.Shed = 0, 2 })},
		{"request-stranded", good, stats(func(s *cluster.LLMClusterStats) { s.Requests = 4 })},
	} {
		if got := rules(audit(tc.reqs, tc.st)); !reflect.DeepEqual(got, []string{tc.rule}) {
			t.Errorf("planted %s: rules fired %v", tc.rule, got)
		}
	}

	// The sharded audit applies the count rules.
	done, failed := &cluster.ShardedRequest{}, &cluster.ShardedRequest{}
	failed.Err = errFailed
	var a settleAudit
	a.sharded(done)
	a.sharded(failed)
	if vs := a.check(2, 1, 1, 0); len(vs) != 0 {
		t.Fatalf("sharded false positives: %v", vs)
	}
	if got := rules(a.check(2, 2, 0, 0)); !reflect.DeepEqual(got, []string{"retained-mismatch"}) {
		t.Errorf("sharded completion off by one: rules fired %v", got)
	}
	if got := rules(a.check(3, 1, 1, 0)); !reflect.DeepEqual(got, []string{"request-stranded"}) {
		t.Errorf("sharded request never settled: rules fired %v", got)
	}
}

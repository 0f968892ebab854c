package invariant

import "olympian/internal/cluster"

// settleAudit runs the per-request rules as each fleet request settles, so
// no layer keeps a finished request for them: it counts the settlements,
// the completions and the delivered tokens, and flags an LLM request whose
// tokens break its budget. check compares the counts with the quiesced
// run's stats.
type settleAudit struct {
	settled, completed, tokens int
	vs                         []Violation
}

// sharded folds one settled sharded-fleet request.
func (a *settleAudit) sharded(r *cluster.ShardedRequest) { a.settle(r.Err, 0) }

// llm folds one settled LLM-fleet request and checks its delivered tokens
// against its budget.
func (a *settleAudit) llm(r *cluster.LLMRequest) {
	a.settle(r.Err, r.TokensOut)
	// OutputTokens is the original budget; degraded-mode cuts are tracked
	// in Truncated, so the effective budget is the difference.
	if r.TokensOut > r.OutputTokens-r.Truncated {
		a.vs = append(a.vs, violatef("llm-over-generation",
			"request %d delivered %d of %d budgeted tokens (%d truncated)",
			r.ID, r.TokensOut, r.OutputTokens, r.Truncated))
	}
	if r.Err == nil && r.TokensOut+r.Truncated != r.OutputTokens {
		a.vs = append(a.vs, violatef("llm-under-generation",
			"completed request %d delivered %d + %d truncated of %d tokens",
			r.ID, r.TokensOut, r.Truncated, r.OutputTokens))
	}
}

func (a *settleAudit) settle(err error, tokens int) {
	a.settled++
	a.tokens += tokens
	if err == nil {
		a.completed++
	}
}

// check returns the per-request violations plus the count rules against
// the stats: every routed request settled exactly once, the settlements
// split into completed and failed (every end with an error) as the stats
// report, and the delivered tokens sum to the stats' tally (0 for a
// sharded fleet).
func (a *settleAudit) check(requests, completed, failed, tokens int) []Violation {
	vs := a.vs
	if a.settled != requests {
		vs = append(vs, violatef("request-stranded",
			"%d requests routed but %d settlements seen", requests, a.settled))
	}
	if a.completed != completed || a.settled-a.completed != failed {
		vs = append(vs, violatef("retained-mismatch",
			"settled requests split as %d completed / %d failed but stats report %d / %d",
			a.completed, a.settled-a.completed, completed, failed))
	}
	if a.tokens != tokens {
		vs = append(vs, violatef("llm-delivery-tally",
			"settled requests sum to %d delivered tokens, stats say %d", a.tokens, tokens))
	}
	return vs
}

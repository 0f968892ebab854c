// Package llm is the autoregressive-serving core: the token-level request
// state machine, the continuous-batching membership policy, the KV-transfer
// link of a prefill/decode-disaggregated fleet, and the sequence-length
// distributions the llm experiment sweeps.
//
// The package is deliberately simulation-light — requests carry virtual-time
// stamps and a completion event, but all policy types (Batcher, Link,
// LengthDist) are plain deterministic state machines, so they unit-test
// without an event heap and behave identically on the single-heap and
// sharded engines.
//
// Token accounting across a fleet follows one rule: every output token is
// delivered exactly once. A request re-dispatched after a crash carries Have
// = tokens already streamed by the dead replica; the next replica recomputes
// their KV (prefill over prompt+Have) but re-emits nothing, so the sum of
// per-device emitted tokens equals the sum of per-request TokensOut — the
// conservation law internal/invariant checks.
package llm

import (
	"time"

	"olympian/internal/overload"
	"olympian/internal/sim"
)

// Role selects which stages of a request a server runs.
type Role uint8

const (
	// Colocated runs prefill and decode on the same device (the classic
	// single-replica deployment).
	Colocated Role = iota
	// PrefillRole runs only prompt prefill: at first token the request is
	// handed off (KV shipped to a decode replica by the cluster layer).
	PrefillRole
	// DecodeRole runs only decode: sequences arrive by Ingest with their
	// prefill already done elsewhere.
	DecodeRole
)

// String names the role.
func (r Role) String() string {
	switch r {
	case Colocated:
		return "colocated"
	case PrefillRole:
		return "prefill"
	case DecodeRole:
		return "decode"
	default:
		return "role?"
	}
}

// Request is one autoregressive generation request as a device-local server
// sees it. The cluster layer keeps its own fleet-level record; stamps are
// global virtual time, so they survive handoffs and failovers intact.
type Request struct {
	// ID is the server-local sequence id (also the KV-cache key).
	ID int
	// Model is the served LLM's name.
	Model string
	// Class is the request's priority class.
	Class overload.Class
	// PromptTokens and OutputTokens are the request's fixed dimensions:
	// prompt length and total tokens to generate.
	PromptTokens int
	OutputTokens int
	// Have is how many output tokens an earlier replica already delivered
	// before this dispatch (0 on first dispatch). Recomputation covers their
	// KV; they are never re-emitted.
	Have int
	// TokensOut is the total output tokens delivered so far, including Have.
	TokensOut int
	// Preemptions counts KV evictions this request suffered here.
	Preemptions int
	// Truncated counts output-budget tokens cut by degraded mode: the
	// request's OutputTokens was lowered by this much after admission, so
	// token conservation closes as TokensOut + Truncated == original budget.
	Truncated int
	// HandedOff marks a prefill-role request whose KV left for a decode
	// replica: locally terminal and successful, but not a completion.
	HandedOff bool
	// AdmitCost is the admission-gate tokens the serving replica charged
	// for the request, zeroed when it releases them (0 = none charged).
	AdmitCost int32

	// ArriveAt is submission time; PrefillStartAt the first prefill kernel's
	// start (0 = never scheduled); FirstTokenAt the first token's emission;
	// LastTokenAt the most recent token's emission; FinishAt terminal time.
	ArriveAt       sim.Time
	PrefillStartAt sim.Time
	FirstTokenAt   sim.Time
	LastTokenAt    sim.Time
	FinishAt       sim.Time

	// Err is the terminal error (nil while running or on success).
	Err error

	done     sim.Event
	finished bool
}

// InitRequest (re)initializes a request the caller holds and binds its
// completion event to env. Every field is reset, so a record reused after
// a terminal state starts clean; the caller must ensure nothing still
// references the request's previous life (its Done has fired and every
// holder has dropped it).
func InitRequest(r *Request, env *sim.Env, id int, model string, class overload.Class, prompt, output, have int) {
	if prompt < 1 {
		prompt = 1
	}
	if output < 1 {
		output = 1
	}
	if have < 0 {
		have = 0
	}
	if have > output {
		have = output
	}
	*r = Request{
		ID:           id,
		Model:        model,
		Class:        class,
		PromptTokens: prompt,
		OutputTokens: output,
		Have:         have,
		TokensOut:    have,
		ArriveAt:     env.Now(),
		done:         env.MakeEvent(),
	}
}

// Done returns the completion event, triggered exactly once at terminal
// state (success, handoff, or failure).
func (r *Request) Done() *sim.Event { return &r.done }

// Finished reports whether the request reached a terminal state here.
func (r *Request) Finished() bool { return r.finished }

// Complete marks the request successful (all tokens delivered, or handed
// off) and triggers its completion event.
func (r *Request) Complete(now sim.Time) {
	if r.finished {
		return
	}
	r.finished = true
	r.FinishAt = now
	r.done.Trigger()
}

// Abort marks the request failed and triggers its completion event. Tokens
// already delivered stay counted: a mid-decode failure is a partial result,
// not a void one.
func (r *Request) Abort(err error, now sim.Time) {
	if r.finished {
		return
	}
	r.finished = true
	r.Err = err
	r.FinishAt = now
	r.done.Trigger()
}

// Truncate lowers the request's output budget to at most budget tokens
// (degraded mode), returning how many budget tokens were cut. The budget
// never drops below the tokens already delivered — or below one — so a
// truncated sequence still retires cleanly at the next token boundary, and
// the cut is recorded in Truncated so conservation closes explicitly.
func (r *Request) Truncate(budget int) int {
	if budget < 1 {
		budget = 1
	}
	if budget < r.TokensOut {
		budget = r.TokensOut
	}
	cut := r.OutputTokens - budget
	if cut <= 0 {
		return 0
	}
	r.OutputTokens = budget
	r.Truncated += cut
	return cut
}

// EmittedHere is how many output tokens this server delivered (excluding
// tokens carried in via Have).
func (r *Request) EmittedHere() int { return r.TokensOut - r.Have }

// KVTokens is the cache footprint in tokens: the prompt plus every output
// token produced so far.
func (r *Request) KVTokens() int { return r.PromptTokens + r.TokensOut }

// QueueDelay is the wait from arrival to the first prefill kernel; 0 while
// waiting or when the request never reached the device.
func (r *Request) QueueDelay() time.Duration {
	if r.PrefillStartAt == 0 || r.PrefillStartAt < r.ArriveAt {
		return 0
	}
	return time.Duration(r.PrefillStartAt - r.ArriveAt)
}

// TTFT is the time to first token; 0 before one is emitted.
func (r *Request) TTFT() time.Duration {
	if r.FirstTokenAt == 0 || r.FirstTokenAt < r.ArriveAt {
		return 0
	}
	return time.Duration(r.FirstTokenAt - r.ArriveAt)
}

// TPOT is the mean inter-token gap over the tokens delivered so far; 0 with
// fewer than two tokens.
func (r *Request) TPOT() time.Duration {
	if r.TokensOut < 2 || r.LastTokenAt <= r.FirstTokenAt {
		return 0
	}
	return time.Duration(r.LastTokenAt-r.FirstTokenAt) / time.Duration(r.TokensOut-1)
}

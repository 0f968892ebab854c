package invariant

import (
	"time"

	"olympian/internal/cluster"
	"olympian/internal/overload"
	"olympian/internal/sim"
)

// Arrival is one open-loop request in an arrival train: when it reaches the
// front-end, relative to the start of the run, and what it asks for. Model
// is read by sharded fleets, Prompt and Output by LLM fleets.
type Arrival struct {
	At             time.Duration
	Model          string
	Class          overload.Class
	Prompt, Output int
}

// DriveSharded feeds n arrivals pulled from next into a freshly built fleet,
// runs it to quiescence, shuts it down, folds its recording under label (a
// no-op when recording is off) and returns its stats audited by
// CheckSharded plus arrival conservation: every arrival was either routed
// or rejected at submit. A rejection is not an error; callers that expect
// none compare st.Requests with n.
func DriveSharded(c *cluster.ShardedCluster, n int, next func() Arrival, label string) (cluster.Stats, []Violation, error) {
	st, rejected, err := drive(c, n, next, label, func(a *Arrival) error {
		_, err := c.SubmitEvent(a.Model, a.Class)
		return err
	})
	if err != nil {
		return st, nil, err
	}
	return st, append(CheckSharded(c, st), arrivals(n, st.Requests, rejected)...), nil
}

// DriveLLM is DriveSharded for a disaggregated LLM fleet, audited by
// CheckLLM.
func DriveLLM(c *cluster.LLMCluster, n int, next func() Arrival, label string) (cluster.LLMClusterStats, []Violation, error) {
	st, rejected, err := drive(c, n, next, label, func(a *Arrival) error {
		_, err := c.SubmitEvent(a.Class, a.Prompt, a.Output)
		return err
	})
	if err != nil {
		return st, nil, err
	}
	return st, append(CheckLLM(c, st), arrivals(n, st.Requests, rejected)...), nil
}

// fleet is the lifecycle both cluster planes share.
type fleet[S any] interface {
	FrontEnv() *sim.Env
	Run() error
	Shutdown()
	FinishObs(label string)
	Stats() S
}

// drive schedules the arrival train on the front-end, submitting each
// arrival as it fires, and runs the fleet's lifecycle. It returns the stats
// and how many submits were rejected.
func drive[S any](c fleet[S], n int, next func() Arrival, label string, submit func(*Arrival) error) (S, int, error) {
	var cur Arrival
	rejected := 0
	c.FrontEnv().ScheduleTrain(n, func() time.Duration {
		cur = next()
		return cur.At
	}, func() {
		if submit(&cur) != nil {
			rejected++
		}
	})
	if err := c.Run(); err != nil {
		var zero S
		return zero, 0, err
	}
	c.Shutdown()
	c.FinishObs(label)
	return c.Stats(), rejected, nil
}

// arrivals checks that n arrivals were all routed or rejected.
func arrivals(n, routed, rejected int) []Violation {
	if routed+rejected == n {
		return nil
	}
	return []Violation{violatef("arrival-conservation",
		"%d arrivals but %d routed + %d rejected", n, routed, rejected)}
}

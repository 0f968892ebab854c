package core

import (
	"math/rand"

	"olympian/internal/executor"
)

// Policy selects the job that receives the next quantum. Grant is called at
// each token hand-off with the active jobs in registration order and the
// job that held the previous quantum (which may have just deregistered and
// so may be absent from jobs). The jobs slice is scheduler scratch, valid
// only during the call. Policies may keep state across calls.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Grant returns the next token holder; it must return one of jobs.
	Grant(rng *rand.Rand, jobs []*executor.Job, last *executor.Job) *executor.Job
}

// fair is round-robin: one quantum each, in job-registration order.
// Job IDs are assigned in registration order, so "the next job" is the one
// with the smallest ID greater than the previous holder's, wrapping around.
type fair struct{}

// NewFair returns the paper's fair-sharing policy.
func NewFair() Policy { return fair{} }

// Name implements Policy.
func (fair) Name() string { return "fair" }

// Grant implements Policy.
func (fair) Grant(_ *rand.Rand, jobs []*executor.Job, last *executor.Job) *executor.Job {
	return nextByID(jobs, last)
}

// nextByID returns the job with the smallest ID greater than last's,
// wrapping to the smallest ID overall.
func nextByID(jobs []*executor.Job, last *executor.Job) *executor.Job {
	if len(jobs) == 0 {
		return nil
	}
	lastID := -1
	if last != nil {
		lastID = last.ID
	}
	var successor, first *executor.Job
	for _, j := range jobs {
		if first == nil || j.ID < first.ID {
			first = j
		}
		if j.ID > lastID && (successor == nil || j.ID < successor.ID) {
			successor = j
		}
	}
	if successor != nil {
		return successor
	}
	return first
}

// weightedFair grants each job Weight consecutive quanta per round-robin
// turn (the paper's §3.4 weighted fair sharing).
type weightedFair struct {
	lastID    int
	remaining int
}

// NewWeightedFair returns the paper's weighted-fair-sharing policy. Weights
// are read from each job's Weight field.
func NewWeightedFair() Policy { return &weightedFair{lastID: -1} }

// Name implements Policy.
func (*weightedFair) Name() string { return "weighted-fair" }

// Grant implements Policy.
func (w *weightedFair) Grant(_ *rand.Rand, jobs []*executor.Job, last *executor.Job) *executor.Job {
	if last != nil && last.ID == w.lastID && w.remaining > 0 {
		// Only continue the streak if the job is still active.
		for _, j := range jobs {
			if j.ID == last.ID {
				w.remaining--
				return j
			}
		}
	}
	next := nextByID(jobs, last)
	if next == nil {
		return nil
	}
	w.lastID = next.ID
	weight := next.Weight
	if weight < 1 {
		weight = 1
	}
	w.remaining = weight - 1
	return next
}

// priority always grants the highest-priority active job; ties break toward
// the earliest-registered job, so equal-priority jobs effectively fair-share
// (the paper's Figure 18 two-level experiment).
type priority struct {
	lastTopID int
}

// NewPriority returns the paper's priority-scheduling policy. Priorities
// are read from each job's Priority field; higher runs first.
func NewPriority() Policy { return &priority{lastTopID: -1} }

// Name implements Policy.
func (*priority) Name() string { return "priority" }

// Grant implements Policy.
func (pr *priority) Grant(_ *rand.Rand, jobs []*executor.Job, last *executor.Job) *executor.Job {
	if len(jobs) == 0 {
		return nil
	}
	top := jobs[0].Priority
	for _, j := range jobs {
		if j.Priority > top {
			top = j.Priority
		}
	}
	var tier []*executor.Job
	for _, j := range jobs {
		if j.Priority == top {
			tier = append(tier, j)
		}
	}
	// Round-robin within the top tier.
	var lastInTier *executor.Job
	if last != nil && last.Priority == top {
		lastInTier = last
	}
	return nextByID(tier, lastInTier)
}

// lottery grants quanta at random with probability proportional to each
// job's Weight — probabilistic fair sharing (a §7 "more scheduling
// policies" extension).
type lottery struct{}

// NewLottery returns a lottery-scheduling policy (Waldspurger-style),
// implemented as a paper-extension policy.
func NewLottery() Policy { return lottery{} }

// Name implements Policy.
func (lottery) Name() string { return "lottery" }

// Grant implements Policy.
func (lottery) Grant(rng *rand.Rand, jobs []*executor.Job, _ *executor.Job) *executor.Job {
	if len(jobs) == 0 {
		return nil
	}
	total := 0
	for _, j := range jobs {
		w := j.Weight
		if w < 1 {
			w = 1
		}
		total += w
	}
	ticket := rng.Intn(total)
	for _, j := range jobs {
		w := j.Weight
		if w < 1 {
			w = 1
		}
		ticket -= w
		if ticket < 0 {
			return j
		}
	}
	return jobs[len(jobs)-1]
}

// deficitRR is deficit round robin over quanta: each turn a job's deficit
// grows by Weight quanta and it keeps the token until the deficit is spent,
// smoothing weighted sharing at fine timescales (a §7 extension).
type deficitRR struct {
	deficit map[int]int // client -> remaining quanta this turn
	lastID  int
}

// NewDeficitRR returns a deficit-round-robin policy, a paper-extension
// alternative to consecutive-quanta weighted fair sharing.
func NewDeficitRR() Policy { return &deficitRR{deficit: make(map[int]int), lastID: -1} }

// Name implements Policy.
func (*deficitRR) Name() string { return "deficit-rr" }

// Grant implements Policy.
func (d *deficitRR) Grant(_ *rand.Rand, jobs []*executor.Job, last *executor.Job) *executor.Job {
	if len(jobs) == 0 {
		return nil
	}
	if last != nil && last.ID == d.lastID && d.deficit[last.Client] > 0 {
		for _, j := range jobs {
			if j.ID == last.ID {
				d.deficit[j.Client]--
				return j
			}
		}
	}
	next := nextByID(jobs, last)
	if next == nil {
		return nil
	}
	w := next.Weight
	if w < 1 {
		w = 1
	}
	d.deficit[next.Client] += w - 1
	d.lastID = next.ID
	return next
}

// edf is earliest-deadline-first: the active job with the soonest nonzero
// deadline receives every quantum; deadline-less jobs run only when no
// deadline-bearing job is active (an SLO-aware §7 extension). Ties and the
// deadline-less tier fall back to round-robin.
type edf struct{}

// NewEDF returns an earliest-deadline-first policy driven by Job.Deadline.
func NewEDF() Policy { return edf{} }

// Name implements Policy.
func (edf) Name() string { return "edf" }

// Grant implements Policy.
func (edf) Grant(_ *rand.Rand, jobs []*executor.Job, last *executor.Job) *executor.Job {
	if len(jobs) == 0 {
		return nil
	}
	var urgent *executor.Job
	for _, j := range jobs {
		if j.Deadline == 0 {
			continue
		}
		if urgent == nil || j.Deadline < urgent.Deadline ||
			(j.Deadline == urgent.Deadline && j.ID < urgent.ID) {
			urgent = j
		}
	}
	if urgent != nil {
		return urgent
	}
	return nextByID(jobs, last)
}

// Package invariant audits simulation runs for request conservation: every
// request submitted to the serving stack must terminate in exactly one of the
// terminal states (completed, shed, expired, failed), no dispatch attempt may
// be stranded in flight after a run quiesces, and no request may settle
// twice. The checks are pure functions over the public stats surfaces, so
// every experiment can audit itself at no cost to the simulated system.
//
// The package also hosts a deterministic chaos fuzzer (fuzz.go): randomized
// fault schedules — crashes, restarts, partitions, stalls — are decoded from
// fuzz bytes into a bounded Schedule, run on both cluster engines, audited,
// and cross-checked for bit-identity. Failing schedules shrink greedily to a
// minimal JSON repro that replays deterministically.
//
// Every open-loop fleet run goes through one driver (drive.go): DriveSharded
// and DriveLLM feed an Arrival train into a fleet, run and shut it down, and
// return its stats with these audits and arrival conservation applied.
package invariant

import (
	"fmt"

	"olympian/internal/cluster"
	"olympian/internal/metrics"
	"olympian/internal/serving"
)

// Violation is one broken invariant, named by rule with enough detail to
// debug the run that produced it.
type Violation struct {
	// Rule names the invariant, stable across runs (e.g. "cluster-conservation").
	Rule string
	// Detail explains what was observed.
	Detail string
}

// String renders the violation as "rule: detail".
func (v Violation) String() string { return v.Rule + ": " + v.Detail }

func violatef(rule, format string, args ...interface{}) Violation {
	return Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)}
}

// CheckClasses audits the per-class conservation identity of one degraded
// tally: Submitted = Completed + Shed + Expired + Failed for every class.
// The scope string labels violations (e.g. "device 2").
func CheckClasses(scope string, d metrics.Degraded) []Violation {
	var vs []Violation
	for class, c := range d.ByClass {
		if got := c.Completed + c.Shed + c.Expired + c.Failed; got != c.Submitted {
			vs = append(vs, violatef("class-conservation",
				"%s class %d: submitted %d but completed %d + shed %d + expired %d + failed %d = %d",
				scope, class, c.Submitted, c.Completed, c.Shed, c.Expired, c.Failed, got))
		}
		if c.Completed < 0 || c.Shed < 0 || c.Expired < 0 || c.Failed < 0 {
			vs = append(vs, violatef("class-negative", "%s class %d: negative tally %+v", scope, class, c))
		}
	}
	return vs
}

// CheckServing audits one device's serving stats after its run quiesced.
func CheckServing(scope string, st serving.Stats) []Violation {
	vs := CheckClasses(scope, st.Degraded)
	var submitted int
	for _, c := range st.Degraded.ByClass {
		submitted += c.Submitted
	}
	if submitted != st.Requests {
		vs = append(vs, violatef("serving-conservation",
			"%s: %d requests submitted but class tallies sum to %d", scope, st.Requests, submitted))
	}
	return vs
}

// CheckStats audits a quiesced cluster run's aggregate stats, whichever
// engine produced them: every cluster-level request must have settled exactly
// once (Requests = Completed + Failed), and each device's serving tallies
// must conserve their own arrivals. Device-level arrivals exceed
// cluster-level ones by failovers and hedges — each re-dispatch is a fresh
// serving-layer submission — so only per-layer identities are asserted, never
// cross-layer equality.
func CheckStats(st cluster.Stats) []Violation {
	var vs []Violation
	if st.Completed+st.Failed != st.Requests {
		vs = append(vs, violatef("cluster-conservation",
			"%d requests submitted but %d completed + %d failed = %d settled",
			st.Requests, st.Completed, st.Failed, st.Completed+st.Failed))
	}
	if st.HedgeWins > st.Hedges {
		vs = append(vs, violatef("hedge-wins", "%d hedge wins exceed %d hedges dispatched", st.HedgeWins, st.Hedges))
	}
	if st.Revives > st.Crashes {
		vs = append(vs, violatef("revive-count", "%d revives exceed %d crashes", st.Revives, st.Crashes))
	}
	for i, ds := range st.PerDevice {
		vs = append(vs, CheckServing(fmt.Sprintf("device %d", i), ds)...)
	}
	return vs
}

// CheckSharded audits a quiesced sharded cluster beyond what its stats
// expose: no dispatch attempt may still be in flight, the router must hold no
// outstanding slots, and every retained request must have settled exactly
// once, in counts matching the aggregate stats.
func CheckSharded(c *cluster.ShardedCluster, st cluster.Stats) []Violation {
	vs := CheckStats(st)
	if n := c.OutstandingAttempts(); n != 0 {
		vs = append(vs, violatef("attempts-quiesced",
			"%d dispatch attempts still in flight after the run quiesced", n))
	}
	rt := c.Router()
	for d := 0; d < c.Devices(); d++ {
		if n := rt.Outstanding(d); n != 0 {
			vs = append(vs, violatef("router-outstanding",
				"device %d holds %d outstanding routing slots after quiescence", d, n))
		}
	}
	if reqs := c.Requests(); reqs != nil {
		completed, failed := 0, 0
		for _, r := range reqs {
			switch {
			case !r.Finished():
				vs = append(vs, violatef("request-stranded",
					"request %d (%s) never reached a terminal state", r.ID, r.Model))
			case r.Failed():
				failed++
			default:
				completed++
			}
		}
		if completed != st.Completed || failed != st.Failed {
			vs = append(vs, violatef("retained-mismatch",
				"retained requests settle as %d completed / %d failed but stats report %d / %d",
				completed, failed, st.Completed, st.Failed))
		}
	}
	return vs
}

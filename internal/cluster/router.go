package cluster

import (
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"strconv"
	"time"

	"olympian/internal/sim"
)

// RoutePolicy selects how the router picks a replica for each request.
type RoutePolicy int

// Routing policies.
const (
	// RoundRobin cycles through a model's replicas in device order.
	RoundRobin RoutePolicy = iota + 1
	// LeastOutstanding picks the replica with the fewest requests routed
	// to it and not yet completed.
	LeastOutstanding
	// CostWeighted picks the replica with the least accumulated profiled
	// debt: each dispatch charges the device T_j = Q·C_j/D_j, so devices
	// serving expensive models receive proportionally fewer requests.
	CostWeighted
	// LeastKVPressure picks the replica with the lowest reported KV-cache
	// utilization (ties broken by least outstanding, then lowest device
	// id), steering new prompts away from saturated replicas. Pressure is
	// fed by SetPressure from completion reports, so it is message-driven
	// state — identical on both cluster engines.
	LeastKVPressure
)

// String names the routing policy.
func (p RoutePolicy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastOutstanding:
		return "least-outstanding"
	case CostWeighted:
		return "cost-weighted"
	case LeastKVPressure:
		return "least-kv-pressure"
	default:
		return fmt.Sprintf("RoutePolicy(%d)", int(p))
	}
}

// Decision is one routing choice, folded into the router's fingerprint in
// dispatch order. The sequence is part of a run's deterministic output: two
// same-seed runs must produce the same DecisionHash.
type Decision struct {
	// Seq is the dispatch index.
	Seq int
	// Model is the requested model.
	Model string
	// Device is the chosen replica's device index.
	Device int
	// Failover marks a re-dispatch after the original device was drained.
	Failover bool
	// Hedge marks a hedged duplicate dispatched to a second replica.
	Hedge bool
}

// Router dispatches requests to model replicas. It is single-environment
// state (like everything inside a simulation) and must only be used from
// process or event context.
type Router struct {
	env    *sim.Env
	policy RoutePolicy

	// replicas maps model -> device indices hosting it (ascending). Models
	// without an entry may run anywhere (all = every device index).
	replicas map[string][]int
	all      []int

	rrNext      map[string]int
	outstanding []int
	debt        []float64 // accumulated T_j, in seconds, per device
	pressure    []float64 // last reported KV utilization per device
	debtUnit    func(modelName string) (time.Duration, error)
	downUntil   []sim.Time
	// dead marks permanently failed devices. Unlike downUntil — a transient
	// state that expires on its own — dead is only cleared by an explicit
	// Revive after the replica's restart warm-up completes. A timer expiry
	// must never resurrect a crashed device.
	dead []bool

	// count numbers the decisions; hash folds each into the running
	// fingerprint as route makes it, so no decision is retained.
	count int
	hash  hash.Hash64
	buf   []byte // appendDecision's reused output

	// kept, live and healthy are route's reused candidate lists.
	kept, live, healthy []int
}

// newRouter wires a router over n devices.
func newRouter(env *sim.Env, n int, policy RoutePolicy, debtUnit func(string) (time.Duration, error)) *Router {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return &Router{
		env:         env,
		policy:      policy,
		replicas:    make(map[string][]int),
		all:         all,
		rrNext:      make(map[string]int),
		outstanding: make([]int, n),
		debt:        make([]float64, n),
		pressure:    make([]float64, n),
		debtUnit:    debtUnit,
		downUntil:   make([]sim.Time, n),
		dead:        make([]bool, n),
		hash:        fnv.New64a(),
	}
}

// setReplicas restricts a model to the given device indices.
func (rt *Router) setReplicas(modelName string, devices []int) {
	sorted := append([]int(nil), devices...)
	sort.Ints(sorted)
	rt.replicas[modelName] = sorted
}

// Replicas returns the device indices eligible to serve a model.
func (rt *Router) Replicas(modelName string) []int {
	if devs, ok := rt.replicas[modelName]; ok {
		return devs
	}
	return rt.all
}

// MarkDown takes a device out of rotation until the given time: new
// requests are routed around it while at least one replica stays healthy.
func (rt *Router) MarkDown(device int, until sim.Time) {
	if until > rt.downUntil[device] {
		rt.downUntil[device] = until
	}
}

// MarkUp returns a transiently-down device to rotation immediately. It never
// resurrects a dead device: permanent failure is only undone by Revive.
func (rt *Router) MarkUp(device int) { rt.downUntil[device] = 0 }

// MarkDead removes a device from rotation permanently: no timer expiry or
// MarkUp re-admits it. Only Revive — called after the replica's restart
// warm-up completes — brings it back.
func (rt *Router) MarkDead(device int) { rt.dead[device] = true }

// Revive re-admits a dead device, clearing any transient down window too: a
// freshly warmed replica starts with a clean slate.
func (rt *Router) Revive(device int) {
	rt.dead[device] = false
	rt.downUntil[device] = 0
}

// Down reports whether a device is currently out of rotation.
func (rt *Router) Down(device int) bool { return rt.env.Now() < rt.downUntil[device] }

// Route picks a replica for one request of the model and records the
// decision. Dead devices are never candidates. Down devices are skipped
// while any healthy replica remains; with every live replica down the router
// degrades to routing among them anyway (queueing at a wedged device beats
// failing the request outright — resident kernels keep executing through a
// stall). With every replica dead, routing errors: there is nowhere for the
// request to go.
func (rt *Router) Route(modelName string, failover bool) (int, error) {
	return rt.route(modelName, failover, false, nil)
}

// RouteHedge picks a replica for a hedged duplicate, never reusing a device
// in exclude (the devices already serving the request). It errors when no
// other replica exists — a single-replica model simply cannot hedge.
func (rt *Router) RouteHedge(modelName string, exclude []int) (int, error) {
	return rt.route(modelName, false, true, exclude)
}

func (rt *Router) route(modelName string, failover, hedge bool, exclude []int) (int, error) {
	cands := rt.Replicas(modelName)
	if len(exclude) > 0 {
		kept := rt.kept[:0]
		for _, d := range cands {
			skip := false
			for _, x := range exclude {
				if d == x {
					skip = true
					break
				}
			}
			if !skip {
				kept = append(kept, d)
			}
		}
		rt.kept = kept
		cands = kept
	}
	live := rt.live[:0]
	for _, d := range cands {
		if !rt.dead[d] {
			live = append(live, d)
		}
	}
	if len(live) == 0 {
		if len(cands) == 0 {
			return -1, fmt.Errorf("cluster: no replicas for model %q", modelName)
		}
		return -1, fmt.Errorf("cluster: no live replicas for model %q", modelName)
	}
	rt.live = live
	cands = live
	healthy := rt.healthy[:0]
	for _, d := range cands {
		if !rt.Down(d) {
			healthy = append(healthy, d)
		}
	}
	rt.healthy = healthy
	if len(healthy) > 0 {
		cands = healthy
	}

	var pick int
	switch rt.policy {
	case RoundRobin:
		pick = cands[rt.rrNext[modelName]%len(cands)]
		rt.rrNext[modelName]++
	case CostWeighted:
		unit, err := rt.debtUnit(modelName)
		if err != nil {
			return -1, err
		}
		pick = cands[0]
		for _, d := range cands[1:] {
			if rt.debt[d] < rt.debt[pick] {
				pick = d
			}
		}
		rt.debt[pick] += unit.Seconds()
	case LeastKVPressure:
		pick = cands[0]
		for _, d := range cands[1:] {
			if rt.pressure[d] < rt.pressure[pick] ||
				(rt.pressure[d] == rt.pressure[pick] && rt.outstanding[d] < rt.outstanding[pick]) {
				pick = d
			}
		}
	default: // LeastOutstanding
		pick = cands[0]
		for _, d := range cands[1:] {
			if rt.outstanding[d] < rt.outstanding[pick] {
				pick = d
			}
		}
	}
	rt.outstanding[pick]++
	d := Decision{Seq: rt.count, Model: modelName, Device: pick, Failover: failover, Hedge: hedge}
	rt.count++
	rt.buf = appendDecision(rt.buf[:0], d)
	rt.hash.Write(rt.buf)
	return pick, nil
}

// appendDecision renders one decision as "seq:model:device:failover:hedge;"
// (integers in decimal, booleans as true/false) onto b: the bytes the
// decision fingerprint folds, identical across both cluster engines.
func appendDecision(b []byte, d Decision) []byte {
	b = strconv.AppendInt(b, int64(d.Seq), 10)
	b = append(b, ':')
	b = append(b, d.Model...)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(d.Device), 10)
	b = append(b, ':')
	b = strconv.AppendBool(b, d.Failover)
	b = append(b, ':')
	b = strconv.AppendBool(b, d.Hedge)
	return append(b, ';')
}

// SetPressure records a device's latest KV-cache utilization for the
// LeastKVPressure policy. Feed it from completion reports (message-driven),
// never by peeking at device-shard state, so both engines see identical
// pressure sequences.
func (rt *Router) SetPressure(device int, p float64) { rt.pressure[device] = p }

// release retires one outstanding request from a device.
func (rt *Router) release(device int) {
	if rt.outstanding[device] > 0 {
		rt.outstanding[device]--
	}
}

// Outstanding returns the requests currently routed to a device and not yet
// completed.
func (rt *Router) Outstanding(device int) int { return rt.outstanding[device] }

// Count returns how many routing decisions have been made.
func (rt *Router) Count() int { return rt.count }

// DecisionHash returns the FNV-1a hash of every routing decision so far — a
// compact fingerprint two same-seed runs can compare for byte-identical
// routing.
func (rt *Router) DecisionHash() uint64 { return rt.hash.Sum64() }

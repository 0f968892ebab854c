package invariant

import (
	"encoding/json"
	"fmt"
	"reflect"
	"time"

	"olympian/internal/cluster"
	"olympian/internal/faults"
	"olympian/internal/gpu"
	"olympian/internal/model"
	"olympian/internal/overload"
)

// DevicePlan is one device's fault schedule inside a fuzzed Schedule. Times
// are microseconds of virtual time so repros serialize as small integers.
type DevicePlan struct {
	// CrashAtUS lists explicit crash instants; RecoveryUS is the restart
	// delay applied to every crash (0 = permanent death).
	CrashAtUS  []int64 `json:"crash_at_us,omitempty"`
	RecoveryUS int64   `json:"recovery_us,omitempty"`
	// PartFromUS lists router-partition window starts; PartDurUS is each
	// window's length.
	PartFromUS []int64 `json:"part_from_us,omitempty"`
	PartDurUS  int64   `json:"part_dur_us,omitempty"`
	// StallEveryUS / StallDurUS arm the transient-stall plane.
	StallEveryUS int64 `json:"stall_every_us,omitempty"`
	StallDurUS   int64 `json:"stall_dur_us,omitempty"`
}

// Schedule is one bounded chaos scenario: a fleet, a fault plan per device,
// and an open-loop arrival train. It round-trips through JSON, so a failing
// schedule is its own replayable repro.
type Schedule struct {
	Seed     int64        `json:"seed"`
	Devices  int          `json:"devices"`
	Arrivals int          `json:"arrivals"`
	GapUS    int64        `json:"gap_us"`
	Plans    []DevicePlan `json:"plans,omitempty"`
	// StrandNth forwards the serving layer's deliberate drain bug
	// (serving.Config.TestStrandDrainNth); the fuzzer's negative tests use it
	// to prove the checker catches a real leak. Zero in honest runs.
	StrandNth int `json:"strand_nth,omitempty"`
	// LLM switches the schedule to the autoregressive serving plane: a
	// prefill/decode-disaggregated fleet with overload control armed
	// (token-rate admission, TTFT deadlines, degraded-mode truncation,
	// capacity retries) so the fuzzer sweeps shed/truncate interleavings the
	// CNN plane cannot produce.
	LLM bool `json:"llm,omitempty"`
	// KVSlackKB sizes each decode replica's KV budget in KiB beyond the
	// resident weights (0 = ample reference memory); small values provoke
	// preemption, truncation, and KV-exhaustion retries.
	KVSlackKB int64 `json:"kv_slack_kb,omitempty"`
}

// Fuzzer bounds: the decoded schedule must finish in milliseconds of wall
// clock, so fleets, arrival trains, and fault horizons are all clamped.
const (
	maxDevices  = 3
	maxArrivals = 32
	maxFaultUS  = 45_000
)

// DecodeSchedule interprets raw fuzz bytes as a bounded Schedule. Every byte
// string decodes to something runnable (short inputs fall back to defaults),
// so the fuzzer never wastes executions on rejected inputs.
func DecodeSchedule(data []byte) Schedule {
	cur := 0
	next := func() int64 {
		if cur < len(data) {
			b := data[cur]
			cur++
			return int64(b)
		}
		return 0
	}
	s := Schedule{
		Seed:     1 + next()<<8 | next(),
		Devices:  1 + int(next())%maxDevices,
		Arrivals: 4 + int(next())%(maxArrivals-3),
		GapUS:    200 + next()%1100,
	}
	// One byte in four selects the LLM plane; the zero byte (and therefore
	// every short input) stays on the CNN plane.
	if next()%4 == 3 {
		s.LLM = true
		s.KVSlackKB = 256 + (next()%8)*128
	}
	for d := 0; d < s.Devices; d++ {
		var p DevicePlan
		flags := next()
		if flags&1 != 0 {
			p.CrashAtUS = []int64{(1 + next()%40) * 1000}
			if flags&2 != 0 {
				p.RecoveryUS = (2 + next()%20) * 1000
			}
			if flags&16 != 0 { // a second crash only makes sense with a restart
				p.CrashAtUS = append(p.CrashAtUS, p.CrashAtUS[0]+p.RecoveryUS+(2+next()%15)*1000)
			}
		}
		if flags&4 != 0 {
			p.PartFromUS = []int64{(1 + next()%40) * 1000}
			p.PartDurUS = (2 + next()%15) * 1000
		}
		if flags&8 != 0 {
			p.StallEveryUS = (5 + next()%30) * 1000
			p.StallDurUS = (2 + next()%20) * 1000
		}
		s.Plans = append(s.Plans, p)
	}
	return s.Clamp()
}

// Clamp forces the schedule back inside the fuzzer's bounds; repros edited by
// hand stay cheap to replay.
func (s Schedule) Clamp() Schedule {
	if s.Devices < 1 {
		s.Devices = 1
	} else if s.Devices > maxDevices {
		s.Devices = maxDevices
	}
	if s.Arrivals < 1 {
		s.Arrivals = 1
	} else if s.Arrivals > maxArrivals {
		s.Arrivals = maxArrivals
	}
	if s.GapUS < 50 {
		s.GapUS = 50
	} else if s.GapUS > 2000 {
		s.GapUS = 2000
	}
	if s.LLM && s.Devices < 2 {
		s.Devices = 2 // disaggregation needs ≥1 prefill and ≥1 decode replica
	}
	if s.KVSlackKB < 0 {
		s.KVSlackKB = 0
	} else if s.KVSlackKB > 4096 {
		s.KVSlackKB = 4096
	}
	if len(s.Plans) > s.Devices {
		s.Plans = s.Plans[:s.Devices]
	}
	for i := range s.Plans {
		p := &s.Plans[i]
		clamp := func(v int64) int64 {
			if v < 0 {
				return 0
			}
			if v > maxFaultUS {
				return maxFaultUS
			}
			return v
		}
		for j := range p.CrashAtUS {
			p.CrashAtUS[j] = clamp(p.CrashAtUS[j])
		}
		for j := range p.PartFromUS {
			p.PartFromUS[j] = clamp(p.PartFromUS[j])
		}
		p.RecoveryUS = clamp(p.RecoveryUS)
		p.PartDurUS = clamp(p.PartDurUS)
		p.StallEveryUS = clamp(p.StallEveryUS)
		p.StallDurUS = clamp(p.StallDurUS)
	}
	return s
}

// ReproJSON renders the schedule as its replayable repro.
func (s Schedule) ReproJSON() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil { // a Schedule of plain ints cannot fail to marshal
		panic(err)
	}
	return b
}

// ScheduleFromJSON parses a repro produced by ReproJSON.
func ScheduleFromJSON(data []byte) (Schedule, error) {
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return Schedule{}, fmt.Errorf("invariant: bad repro: %w", err)
	}
	return s.Clamp(), nil
}

// faultPlans translates the device plans into per-device fault plans, nil
// for a device with none; partition windows forward only when asked.
func (s Schedule) faultPlans(partitions bool) []*faults.Plan {
	us := func(v int64) time.Duration { return time.Duration(v) * time.Microsecond }
	plans := make([]*faults.Plan, s.Devices)
	for i := 0; i < s.Devices && i < len(s.Plans); i++ {
		p := s.Plans[i]
		fp := &faults.Plan{}
		for _, at := range p.CrashAtUS {
			fp.Crashes = append(fp.Crashes, faults.CrashEvent{At: us(at), Recovery: us(p.RecoveryUS)})
		}
		if partitions {
			for _, from := range p.PartFromUS {
				fp.Partitions = append(fp.Partitions, faults.Window{From: us(from), Dur: us(p.PartDurUS)})
			}
		}
		if p.StallEveryUS > 0 && p.StallDurUS > 0 {
			fp.StallEvery, fp.StallDur = us(p.StallEveryUS), us(p.StallDurUS)
		}
		if fp.Enabled() {
			plans[i] = fp
		}
	}
	return plans
}

// config translates the schedule into a cluster config. The micro model keeps
// each request a handful of events, so a full cross-engine check stays under
// a few milliseconds of wall clock.
func (s Schedule) config() cluster.Config {
	devs := make([]gpu.Spec, s.Devices)
	for i := range devs {
		devs[i] = gpu.GTX1080Ti
	}
	return cluster.Config{
		Seed:               s.Seed,
		Devices:            devs,
		Faults:             s.faultPlans(true),
		MaxBatch:           8,
		BatchTimeout:       500 * time.Microsecond,
		TestStrandDrainNth: s.StrandNth,
	}
}

// Run executes the schedule on one engine and audits the quiesced run.
// Routing rejections (every replica dead) surface as synchronous submit
// errors and are tallied, not treated as violations — a fully-dead fleet
// legitimately rejects traffic.
func (s Schedule) Run(engine cluster.Engine) (cluster.Stats, []Violation, error) {
	c, err := cluster.NewSharded(s.config(), engine)
	if err != nil {
		return cluster.Stats{}, nil, err
	}
	i := -1
	return DriveSharded(c, s.Arrivals, func() Arrival {
		i++
		class := overload.Interactive
		if i%3 == 2 {
			class = overload.Batch
		}
		return Arrival{At: time.Duration(int64(i)*s.GapUS) * time.Microsecond, Model: model.Micro, Class: class}
	}, "")
}

// llmConfig translates an LLM-mode schedule into a disaggregated-fleet
// config with the whole overload-control plane armed: tight KV slack and
// aggressive SLOs make shed, expiry, truncation, preemption, and retry paths
// all reachable from small fuzz inputs. Only the crash and stall planes
// forward from the device plans — partitions are a CNN-router concept.
func (s Schedule) llmConfig() cluster.LLMConfig {
	weights, _ := model.LLMWeightsBytes(model.LLMTiny)
	spec := gpu.GTX1080Ti
	if s.KVSlackKB > 0 {
		spec.Name = "fuzz-starved"
		spec.MemoryBytes = weights + s.KVSlackKB<<10
	}
	return cluster.LLMConfig{
		Seed:            s.Seed,
		Model:           model.LLMTiny,
		PrefillReplicas: 1,
		DecodeReplicas:  s.Devices - 1,
		DecodeSpec:      spec,
		MaxQueue:        3,
		Route:           cluster.LeastKVPressure,
		TTFTDeadline:    2 * time.Millisecond,
		TPOTBudget:      time.Millisecond,
		Admission:       &overload.AIMDConfig{Initial: 512, Min: 128, Max: 4096},
		KVWatermark:     0.7,
		DegradedTail:    4,
		MaxRetries:      2,
		Faults:          s.faultPlans(false),
	}
}

// runLLM executes an LLM-mode schedule on one engine and audits the quiesced
// fleet, mirroring Run on the CNN plane.
func (s Schedule) runLLM(engine cluster.Engine) (cluster.LLMClusterStats, []Violation, error) {
	c, err := cluster.NewLLM(s.llmConfig(), engine)
	if err != nil {
		return cluster.LLMClusterStats{}, nil, err
	}
	i := -1
	return DriveLLM(c, s.Arrivals, func() Arrival {
		i++
		class := overload.Batch
		if i%3 == 2 {
			class = overload.Interactive
		}
		return Arrival{At: time.Duration(int64(i)*s.GapUS) * time.Microsecond, Class: class,
			Prompt: 16 + (i%5)*24, Output: 20 + (i%6)*25}
	}, "")
}

// Check is the fuzz target's oracle: run the schedule on the single-heap
// reference engine and on the sharded engine, audit every run for
// conservation, and require bit-identical stats, decision hash included.
// The returned slice is empty exactly when the schedule holds every
// invariant.
func (s Schedule) Check() ([]Violation, error) {
	if s.LLM {
		return crossCheck(s.runLLM)
	}
	return crossCheck(s.Run)
}

// crossCheck runs one schedule through run on the single-heap engine and on
// the sharded engine.
func crossCheck[S any](run func(cluster.Engine) (S, []Violation, error)) ([]Violation, error) {
	ref, vs, err := run(cluster.SingleHeap)
	if err != nil {
		return nil, err
	}
	got, gvs, err := run(cluster.Sharded)
	if err != nil {
		return nil, err
	}
	vs = append(vs, gvs...)
	if !reflect.DeepEqual(ref, got) {
		vs = append(vs, violatef("engine-identity",
			"sharded stats diverge from single-heap reference\nref: %+v\ngot: %+v", ref, got))
	}
	return vs, nil
}

// Fails reports whether the schedule still violates an invariant; runtime
// errors count as failing (the shrinker must not "fix" a repro by making it
// unrunnable in a different way).
func (s Schedule) Fails() bool {
	vs, err := s.Check()
	return err != nil || len(vs) > 0
}

// Shrink greedily minimizes a failing schedule: drop devices, halve the
// arrival train, strip fault clauses — keeping each simplification only if
// the schedule still fails. The result is the smallest repro this greedy
// descent reaches, deterministic for a given input.
func Shrink(s Schedule) Schedule {
	if !s.Fails() {
		return s
	}
	simpler := func(cand Schedule) (Schedule, bool) {
		cand = cand.Clamp()
		if cand.Fails() {
			return cand, true
		}
		return s, false
	}
	for changed := true; changed; {
		changed = false
		// Fewer devices (drop the last, with its plan).
		if s.Devices > 1 {
			cand := s
			cand.Devices--
			if len(cand.Plans) > cand.Devices {
				cand.Plans = append([]DevicePlan(nil), cand.Plans[:cand.Devices]...)
			}
			if next, ok := simpler(cand); ok {
				s, changed = next, true
				continue
			}
		}
		// Fewer arrivals.
		if s.Arrivals > 1 {
			cand := s
			cand.Arrivals = s.Arrivals / 2
			if next, ok := simpler(cand); ok {
				s, changed = next, true
				continue
			}
			cand.Arrivals = s.Arrivals - 1
			if next, ok := simpler(cand); ok {
				s, changed = next, true
				continue
			}
		}
		// Strip fault clauses, one device and one plane at a time.
		for i := range s.Plans {
			strip := []func(*DevicePlan){
				func(p *DevicePlan) { p.CrashAtUS = nil; p.RecoveryUS = 0 },
				func(p *DevicePlan) { p.PartFromUS = nil; p.PartDurUS = 0 },
				func(p *DevicePlan) { p.StallEveryUS = 0; p.StallDurUS = 0 },
				func(p *DevicePlan) { p.RecoveryUS = 0 }, // restart -> permanent
			}
			for _, mutate := range strip {
				cand := s
				cand.Plans = append([]DevicePlan(nil), s.Plans...)
				before := cand.Plans[i]
				mutate(&cand.Plans[i])
				if reflect.DeepEqual(before, cand.Plans[i]) {
					continue
				}
				if next, ok := simpler(cand); ok {
					s, changed = next, true
					break
				}
			}
			if changed {
				break
			}
		}
	}
	return s
}

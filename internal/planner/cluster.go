// Cluster placement: before a fleet serves traffic, an operator must decide
// how many replicas each model needs and which device hosts each replica.
// This file extends the planner with that decision layer. Replica counts
// follow from offered load against each device's quantum budget (a device
// can hand out at most its capacity in profiled GPU time per wall second),
// and assignment packs replicas into device memory under one of two
// policies: best-fit-decreasing (bin packing, minimises fragmentation) or a
// fairness-aware spread (equalises each device's expected load share, the
// property the per-device Olympian schedulers rely on for predictable
// quanta). All decisions are deterministic: inputs are sorted on stable
// keys and every score tie breaks toward the lowest device ID.
package planner

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// ModelLoad describes one served model's placement-relevant footprint.
type ModelLoad struct {
	// Model and Batch identify the profiled graph.
	Model string
	Batch int
	// Cost is the profiled per-request GPU cost C_j.
	Cost time.Duration
	// GPUDuration is the profiled solo GPU duration D_j (defaults to Cost
	// when zero); C_j/D_j is the cost accumulation rate the router's debt
	// policy uses.
	GPUDuration time.Duration
	// MemoryBytes is the device memory one replica pins (weights +
	// workspace).
	MemoryBytes int64
	// Rate is the offered load in requests per second.
	Rate float64
}

// demand returns the model's offered GPU load in reference-GPU-seconds per
// second.
func (m ModelLoad) demand() float64 { return m.Rate * m.Cost.Seconds() }

// DeviceCap is one device's placement-relevant capacity.
type DeviceCap struct {
	// ID identifies the device in the fleet (its index).
	ID int
	// MemoryBytes is usable device memory.
	MemoryBytes int64
	// ClockScale is relative speed (1.0 = reference platform): the device
	// supplies ClockScale reference-GPU-seconds of work per wall second.
	ClockScale float64
}

// PlacePolicy selects the replica-assignment discipline.
type PlacePolicy int

// Placement policies.
const (
	// BestFitDecreasing packs replicas largest-memory-first onto the
	// device with the least remaining memory that still fits.
	BestFitDecreasing PlacePolicy = iota + 1
	// Spread balances expected load: each replica goes to the fitting
	// device with the lowest accumulated load share.
	Spread
)

// String names the policy.
func (p PlacePolicy) String() string {
	switch p {
	case BestFitDecreasing:
		return "best-fit-decreasing"
	case Spread:
		return "spread"
	default:
		return fmt.Sprintf("PlacePolicy(%d)", int(p))
	}
}

// DefaultTargetUtil is the fraction of a device's quantum budget replica
// sizing plans against, leaving headroom for switch overhead and bursts.
const DefaultTargetUtil = 0.7

// Replica is one placed model instance.
type Replica struct {
	Model  string
	Batch  int
	Device int // DeviceCap.ID
}

// Placement is the planned assignment of replicas to devices.
type Placement struct {
	Policy   PlacePolicy
	Replicas []Replica
	// MemUsed and LoadShare are indexed by position in the devices slice
	// given to PlanPlacement.
	MemUsed   []int64
	LoadShare []float64
}

// ReplicaCount derives how many replicas a model needs: its offered GPU
// demand divided by the fleet's mean per-device quantum budget
// (ClockScale × targetUtil reference-GPU-seconds per second), rounded up,
// clamped to [1, len(devices)] since a model gains nothing from two
// replicas on one device.
func ReplicaCount(m ModelLoad, devices []DeviceCap, targetUtil float64) int {
	if len(devices) == 0 {
		return 0
	}
	if targetUtil <= 0 {
		targetUtil = DefaultTargetUtil
	}
	budget := 0.0
	for _, d := range devices {
		cs := d.ClockScale
		if cs <= 0 {
			cs = 1
		}
		budget += cs * targetUtil
	}
	budget /= float64(len(devices))
	n := int(math.Ceil(m.demand() / budget))
	if n < 1 {
		n = 1
	}
	if n > len(devices) {
		n = len(devices)
	}
	return n
}

// PlanPlacement sizes replicas for each model from its offered load and
// assigns them to devices under the given policy. It fails when any replica
// cannot be placed within device memory — a fleet that cannot hold the
// model set should be rejected at planning time, not discovered mid-run.
func PlanPlacement(models []ModelLoad, devices []DeviceCap, policy PlacePolicy) (*Placement, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("planner: no models to place")
	}
	if len(devices) == 0 {
		return nil, fmt.Errorf("planner: no devices to place on")
	}
	if policy == 0 {
		policy = BestFitDecreasing
	}
	seen := make(map[int]bool, len(devices))
	for _, d := range devices {
		if seen[d.ID] {
			return nil, fmt.Errorf("planner: duplicate device id %d", d.ID)
		}
		seen[d.ID] = true
	}
	for _, m := range models {
		if m.Cost <= 0 {
			return nil, fmt.Errorf("planner: model %s/%d has no profiled cost", m.Model, m.Batch)
		}
		if m.MemoryBytes <= 0 {
			return nil, fmt.Errorf("planner: model %s/%d has no memory footprint", m.Model, m.Batch)
		}
	}

	// Stable model order: both policies place heavy models first (memory
	// for BFD, load for spread), with name/batch as deterministic
	// tie-breakers.
	ordered := append([]ModelLoad(nil), models...)
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		switch policy {
		case Spread:
			if a.demand() != b.demand() {
				return a.demand() > b.demand()
			}
		default:
			if a.MemoryBytes != b.MemoryBytes {
				return a.MemoryBytes > b.MemoryBytes
			}
		}
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		return a.Batch < b.Batch
	})

	pl := &Placement{
		Policy:    policy,
		MemUsed:   make([]int64, len(devices)),
		LoadShare: make([]float64, len(devices)),
	}
	hosts := make(map[string]map[int]bool, len(models)) // model/batch -> device positions
	for _, m := range ordered {
		key := fmt.Sprintf("%s/%d", m.Model, m.Batch)
		if hosts[key] == nil {
			hosts[key] = make(map[int]bool)
		}
		replicas := ReplicaCount(m, devices, DefaultTargetUtil)
		perReplica := m.demand() / float64(replicas)
		for rep := 0; rep < replicas; rep++ {
			best := -1
			var bestScore float64
			for pos, d := range devices {
				if hosts[key][pos] {
					continue // one replica of a model per device
				}
				remain := d.MemoryBytes - pl.MemUsed[pos]
				if remain < m.MemoryBytes {
					continue
				}
				cs := d.ClockScale
				if cs <= 0 {
					cs = 1
				}
				var score float64
				switch policy {
				case Spread:
					score = pl.LoadShare[pos] + perReplica/cs
				default: // BestFitDecreasing: tightest remaining fit wins
					score = float64(remain - m.MemoryBytes)
				}
				// Strict < keeps the first (lowest-position, hence
				// lowest-ID) device on ties.
				if best < 0 || score < bestScore {
					best, bestScore = pos, score
				}
			}
			if best < 0 {
				return nil, fmt.Errorf(
					"planner: cannot place %s replica %d/%d (%d MiB): no device with room",
					key, rep+1, replicas, m.MemoryBytes>>20)
			}
			hosts[key][best] = true
			pl.MemUsed[best] += m.MemoryBytes
			cs := devices[best].ClockScale
			if cs <= 0 {
				cs = 1
			}
			pl.LoadShare[best] += perReplica / cs
			pl.Replicas = append(pl.Replicas, Replica{
				Model: m.Model, Batch: m.Batch, Device: devices[best].ID,
			})
		}
	}
	return pl, nil
}

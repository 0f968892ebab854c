package planner

import (
	"reflect"
	"sort"
	"testing"
	"time"
)

func gib(n int64) int64 { return n << 30 }

func refDevices(n int, mem int64) []DeviceCap {
	out := make([]DeviceCap, n)
	for i := range out {
		out[i] = DeviceCap{ID: i, MemoryBytes: mem, ClockScale: 1}
	}
	return out
}

func TestReplicaCountScalesWithLoad(t *testing.T) {
	devs := refDevices(8, gib(11))
	light := ModelLoad{Model: "m", Batch: 1, Cost: 2 * time.Millisecond, MemoryBytes: gib(1), Rate: 50}
	if n := ReplicaCount(light, devs, DefaultTargetUtil); n != 1 {
		t.Fatalf("light load wants %d replicas, expected 1", n)
	}
	// 400 req/s x 5ms = 2 GPU-sec/sec, against a 0.7 budget per device.
	heavy := light
	heavy.Cost = 5 * time.Millisecond
	heavy.Rate = 400
	if n := ReplicaCount(heavy, devs, DefaultTargetUtil); n != 3 {
		t.Fatalf("heavy load wants %d replicas, expected 3", n)
	}
	// Demand beyond the fleet clamps to one replica per device.
	flood := heavy
	flood.Rate = 1e5
	if n := ReplicaCount(flood, devs, DefaultTargetUtil); n != len(devs) {
		t.Fatalf("flood wants %d replicas, expected %d", n, len(devs))
	}
}

func TestPlacementRejectsMemoryOverflow(t *testing.T) {
	devs := refDevices(2, gib(4))
	models := []ModelLoad{
		{Model: "whale", Batch: 1, Cost: time.Millisecond, MemoryBytes: gib(8), Rate: 10},
	}
	for _, pol := range []PlacePolicy{BestFitDecreasing, Spread} {
		if _, err := PlanPlacement(models, devs, pol); err == nil {
			t.Fatalf("%v: oversized model placed, expected rejection", pol)
		}
	}
	// Overflow by accumulation, not by a single replica: three 3-GiB
	// models fit individually but not two per 4-GiB device.
	crowd := []ModelLoad{
		{Model: "a", Batch: 1, Cost: time.Millisecond, MemoryBytes: gib(3), Rate: 10},
		{Model: "b", Batch: 1, Cost: time.Millisecond, MemoryBytes: gib(3), Rate: 10},
		{Model: "c", Batch: 1, Cost: time.Millisecond, MemoryBytes: gib(3), Rate: 10},
	}
	if _, err := PlanPlacement(crowd, devs, BestFitDecreasing); err == nil {
		t.Fatal("overcommitted fleet accepted, expected rejection")
	}
}

func TestPlacementHeterogeneousDevices(t *testing.T) {
	// One big device, one small: the large model can only live on device 1,
	// and best-fit must still find room for the small model afterwards.
	devs := []DeviceCap{
		{ID: 0, MemoryBytes: gib(4), ClockScale: 1},
		{ID: 1, MemoryBytes: gib(12), ClockScale: 1.5},
	}
	models := []ModelLoad{
		{Model: "small", Batch: 1, Cost: time.Millisecond, MemoryBytes: gib(2), Rate: 10},
		{Model: "large", Batch: 1, Cost: time.Millisecond, MemoryBytes: gib(10), Rate: 10},
	}
	pl, err := PlanPlacement(models, devs, BestFitDecreasing)
	if err != nil {
		t.Fatal(err)
	}
	if got := devicesFor(pl, "large", 1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("large model on %v, want [1]", got)
	}
	if got := devicesFor(pl, "small", 1); len(got) != 1 {
		t.Fatalf("small model on %v, want one device", got)
	}
	// Spread should account for the faster clock: the same demand loads
	// device 1 less, so the small model lands there too once the large
	// model's share is placed... but never beyond memory.
	if _, err := PlanPlacement(models, devs, Spread); err != nil {
		t.Fatalf("spread on heterogeneous fleet: %v", err)
	}
}

func TestPlacementDeterministicTieBreak(t *testing.T) {
	// Two identical devices score equally for the first replica: the
	// lowest device ID must win, every time.
	devs := refDevices(2, gib(11))
	models := []ModelLoad{
		{Model: "m", Batch: 4, Cost: time.Millisecond, MemoryBytes: gib(1), Rate: 10},
	}
	for _, pol := range []PlacePolicy{BestFitDecreasing, Spread} {
		pl, err := PlanPlacement(models, devs, pol)
		if err != nil {
			t.Fatal(err)
		}
		if got := devicesFor(pl, "m", 4); len(got) != 1 || got[0] != 0 {
			t.Fatalf("%v: tie broke to %v, want [0]", pol, got)
		}
	}
	// Full-plan determinism: repeated planning of a multi-model fleet is
	// byte-identical.
	mix := []ModelLoad{
		{Model: "a", Batch: 1, Cost: 2 * time.Millisecond, MemoryBytes: gib(2), Rate: 300},
		{Model: "b", Batch: 1, Cost: 1 * time.Millisecond, MemoryBytes: gib(2), Rate: 300},
		{Model: "c", Batch: 1, Cost: 3 * time.Millisecond, MemoryBytes: gib(3), Rate: 100},
	}
	fleet := refDevices(4, gib(11))
	for _, pol := range []PlacePolicy{BestFitDecreasing, Spread} {
		first, err := PlanPlacement(mix, fleet, pol)
		if err != nil {
			t.Fatal(err)
		}
		again, err := PlanPlacement(mix, fleet, pol)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("%v: same inputs produced different placements", pol)
		}
	}
}

func TestPlacementSpreadBalancesLoad(t *testing.T) {
	devs := refDevices(4, gib(11))
	// Four equal models, heavy enough for 2 replicas each: spread should
	// land 2 replicas per device.
	var models []ModelLoad
	for _, name := range []string{"a", "b", "c", "d"} {
		models = append(models, ModelLoad{
			Model: name, Batch: 1, Cost: 4 * time.Millisecond, MemoryBytes: gib(1), Rate: 200,
		})
	}
	pl, err := PlanPlacement(models, devs, Spread)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(devs))
	for _, r := range pl.Replicas {
		counts[r.Device]++
	}
	for i, c := range counts {
		if c != 2 {
			t.Fatalf("device %d hosts %d replicas, want 2 (counts %v)", i, c, counts)
		}
	}
	for i := 1; i < len(pl.LoadShare); i++ {
		if pl.LoadShare[i] != pl.LoadShare[0] {
			t.Fatalf("spread load shares uneven: %v", pl.LoadShare)
		}
	}
}

// devicesFor returns the device IDs hosting (model, batch), ascending.
func devicesFor(pl *Placement, modelName string, batch int) []int {
	var out []int
	for _, r := range pl.Replicas {
		if r.Model == modelName && r.Batch == batch {
			out = append(out, r.Device)
		}
	}
	sort.Ints(out)
	return out
}

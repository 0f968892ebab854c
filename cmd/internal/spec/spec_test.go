package spec

import (
	"encoding/json"
	"testing"
	"time"

	"olympian"
)

func TestBuildDecodesEveryClientField(t *testing.T) {
	var s Simulation
	body := `{"scheduler":"kernel-slicing","policy":"edf","quantumUs":900,"seed":7,
	  "clients":[{"model":"vgg","batch":10,"batches":2,"count":2,"weight":3,"priority":1,"arriveMs":5,"deadlineMs":40}]}`
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatal(err)
	}
	cfg, clients, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scheduler != olympian.SchedulerKernelSlicing || cfg.Policy.Name() != "edf" ||
		cfg.Quantum != 900*time.Microsecond || cfg.Seed != 7 {
		t.Fatalf("config %+v", cfg)
	}
	want := olympian.Client{Model: "vgg", Batch: 10, Batches: 2, Weight: 3, Priority: 1,
		ArriveAt: 5 * time.Millisecond, Deadline: 40 * time.Millisecond}
	if len(clients) != 2 || clients[0] != want || clients[1] != want {
		t.Fatalf("clients %+v, want two of %+v", clients, want)
	}
	for _, bad := range []Simulation{
		{Scheduler: "warp", Clients: s.Clients},
		{Policy: "random", Clients: s.Clients},
		{Clients: []ClientGroup{{Model: "vgg", Batch: MaxBatch + 1}}},
		{},
	} {
		if _, _, err := bad.Build(); err == nil {
			t.Errorf("%+v: expected an error", bad)
		}
	}
}

// FuzzSpecBuild decodes arbitrary bytes into a Simulation, as the scenario
// files and the HTTP bodies do. Build must fail, or return a client list
// inside every cap (clients, batch size, sequential jobs), and never panic.
func FuzzSpecBuild(f *testing.F) {
	for _, seed := range []string{
		`{"scheduler":"olympian","policy":"edf","quantumUs":900,"clients":[{"model":"vgg","batch":10,"batches":2,"count":2}]}`,
		`{"clients":[{"model":"inception-v4","batch":1025}]}`,
		`{"clients":[{"model":"inception-v4","batch":1,"count":2000000000}]}`,
		`{"clients":[{"model":"inception-v4","batch":1,"batches":2000000000}]}`,
		`{"clients":[{"count":-5,"batch":-3,"batches":-1}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Simulation
		if json.Unmarshal(data, &s) != nil {
			return
		}
		_, clients, err := s.Build()
		if err != nil {
			return
		}
		if len(clients) == 0 || len(clients) > MaxClients {
			t.Fatalf("built %d clients, cap %d", len(clients), MaxClients)
		}
		jobs := 0
		for _, c := range clients {
			if c.Batch > MaxBatch {
				t.Fatalf("built batch %d, cap %d", c.Batch, MaxBatch)
			}
			jobs += max(c.Batches, 1)
		}
		if jobs > MaxJobs {
			t.Fatalf("built %d jobs, cap %d", jobs, MaxJobs)
		}
	})
}

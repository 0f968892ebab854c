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
		{},
	} {
		if _, _, err := bad.Build(); err == nil {
			t.Errorf("%+v: expected an error", bad)
		}
	}
}

package workload

import (
	"testing"
	"time"

	"olympian/internal/model"
)

func TestRunMultiScalesThroughput(t *testing.T) {
	clients := smallClients(4, 2)
	one, err := Run(Config{Seed: 1, Kind: Olympian, GPUs: 1}, clients)
	if err != nil {
		t.Fatal(err)
	}
	two, err := Run(Config{Seed: 1, Kind: Olympian, GPUs: 2}, clients)
	if err != nil {
		t.Fatal(err)
	}
	speedup := one.Elapsed.Seconds() / two.Elapsed.Seconds()
	if speedup < 1.7 || speedup > 2.3 {
		t.Fatalf("2-GPU speedup %.2f, want ~2", speedup)
	}
	if len(two.PerGPU) != 2 {
		t.Fatalf("per-GPU shares %d, want 2", len(two.PerGPU))
	}
	if two.PerGPU[0].Clients != 2 || two.PerGPU[1].Clients != 2 {
		t.Fatalf("placement %+v, want 2/2", two.PerGPU)
	}
	mean := (two.PerGPU[0].Utilization + two.PerGPU[1].Utilization) / 2
	if two.Utilization != mean {
		t.Fatalf("fleet utilization %v, want the per-GPU mean %v", two.Utilization, mean)
	}
}

func TestRunMultiVanilla(t *testing.T) {
	clients := smallClients(4, 1)
	res, err := Run(Config{Seed: 1, Kind: Vanilla, GPUs: 2, ReserveMemory: true}, clients)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches != 0 {
		t.Fatal("vanilla multi-GPU run should not switch tokens")
	}
	if len(res.Finishes.Records) != 4 {
		t.Fatalf("%d finishes", len(res.Finishes.Records))
	}
	// Each client reserves on the device it was placed on, so device 0
	// holds only its own two clients' memory.
	bytes, err := model.MemoryBytes(clients[0].Model, clients[0].Batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Device.MemoryPeak != 2*bytes {
		t.Fatalf("device 0 memory peak %d, want two clients' %d", res.Device.MemoryPeak, 2*bytes)
	}
}

func TestRunMultiRejectsEmpty(t *testing.T) {
	if _, err := Run(Config{GPUs: 2}, nil); err == nil {
		t.Fatal("expected error for empty client set")
	}
}

func TestPoissonClientsArrivalProcess(t *testing.T) {
	clients := PoissonClients(model.Inception, 50, 10, 2*time.Second, 7)
	if len(clients) == 0 {
		t.Fatal("no arrivals generated")
	}
	// Expected ~20 arrivals at 10/s over 2s; allow wide tolerance.
	if len(clients) < 8 || len(clients) > 40 {
		t.Fatalf("%d arrivals, want ~20", len(clients))
	}
	var prev time.Duration
	for _, c := range clients {
		if c.ArriveAt < prev {
			t.Fatal("arrivals not monotone")
		}
		if c.ArriveAt >= 2*time.Second {
			t.Fatal("arrival beyond horizon")
		}
		if c.Batches != 1 {
			t.Fatal("open-loop clients must be single-batch")
		}
		prev = c.ArriveAt
	}
	// Determinism.
	again := PoissonClients(model.Inception, 50, 10, 2*time.Second, 7)
	if len(again) != len(clients) {
		t.Fatal("arrival process not deterministic")
	}
}

func TestLatencies(t *testing.T) {
	clients := []ClientSpec{
		{Model: model.Inception, Batch: 10, ArriveAt: time.Second},
		{Model: model.Inception, Batch: 10, ArriveAt: 2 * time.Second},
	}
	res, err := Run(Config{Seed: 1, Kind: Vanilla}, clients)
	if err != nil {
		t.Fatal(err)
	}
	lats := Latencies(res.Finishes, clients)
	if len(lats) != 2 {
		t.Fatalf("%d latencies", len(lats))
	}
	for _, l := range lats {
		if l <= 0 || l > 10*time.Second {
			t.Fatalf("latency %v out of range", l)
		}
	}
}

package olympian

import (
	"bytes"
	"testing"
	"time"
)

func TestSimulateMultiGPUSchedulers(t *testing.T) {
	clients := HomogeneousClients(Inception, 50, 2, 4)
	for _, kind := range []Scheduler{SchedulerOlympian, SchedulerCPUTimer, SchedulerKernelSlicing} {
		one, err := Simulate(Config{Scheduler: kind}, clients)
		if err != nil {
			t.Fatal(err)
		}
		two, err := Simulate(Config{Scheduler: kind, GPUs: 2}, clients)
		if err != nil {
			t.Fatal(err)
		}
		if got := two.GPUClients(); len(got) != 2 || got[0]+got[1] != 4 {
			t.Fatalf("%s: placement %v", kind, got)
		}
		if two.Elapsed() >= one.Elapsed() {
			t.Fatalf("%s: 2 GPUs (%v) not faster than 1 (%v)", kind, two.Elapsed(), one.Elapsed())
		}
		if two.FinishSpread() > 1.05 {
			t.Fatalf("%s: multi-GPU fairness spread %.3f", kind, two.FinishSpread())
		}
		for _, u := range two.GPUUtilizations() {
			if u <= 0 || u > 1 {
				t.Fatalf("%s: utilization %v", kind, u)
			}
		}
		if two.TokenSwitches() == 0 {
			t.Fatalf("%s: no scheduling activity on either device", kind)
		}
	}
}

func TestPoissonLatencies(t *testing.T) {
	clients := PoissonClients(Inception, 50, 4, 3*time.Second, 9)
	if len(clients) < 3 {
		t.Fatalf("only %d arrivals", len(clients))
	}
	res, err := Simulate(Config{Scheduler: SchedulerOlympian}, clients)
	if err != nil {
		t.Fatal(err)
	}
	lats := Latencies(res, clients)
	if len(lats) != len(clients) {
		t.Fatalf("%d latencies for %d clients", len(lats), len(clients))
	}
	for _, l := range lats {
		if l <= 0 {
			t.Fatalf("nonpositive latency %v", l)
		}
	}
}

func TestWriteTrace(t *testing.T) {
	clients := HomogeneousClients(Inception, 40, 1, 2)
	res, err := Simulate(Config{Scheduler: SchedulerOlympian}, clients)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteTrace(&buf, clients); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(Inception)) {
		t.Fatal("trace missing model label")
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"ph":"X"`)) {
		t.Fatal("trace missing complete events")
	}
}

func TestEDFPolicyFavorsDeadlines(t *testing.T) {
	clients := HomogeneousClients(ResNet152, 60, 2, 4)
	clients[3].Deadline = 50 * time.Millisecond // tight SLO
	cfg := Config{Scheduler: SchedulerOlympian, Policy: EDFPolicy()}
	res, err := Simulate(cfg, clients)
	if err != nil {
		t.Fatal(err)
	}
	fins := res.FinishTimes()
	for i := 0; i < 3; i++ {
		if fins[3] >= fins[i] {
			t.Fatalf("deadline client finished at %v, after best-effort client %d at %v", fins[3], i, fins[i])
		}
	}
	// On two GPUs, least-allocated placement puts the deadline client on
	// device 1 with client 1, whose scheduler must honour the policy too.
	cfg.Policy, cfg.GPUs = EDFPolicy(), 2
	two, err := Simulate(cfg, clients)
	if err != nil {
		t.Fatal(err)
	}
	if fins := two.FinishTimes(); fins[3] >= fins[1] {
		t.Fatalf("2 GPUs: deadline client finished at %v, after its device-mate at %v", fins[3], fins[1])
	}
}

func TestPlanMatchesSimulatedFairness(t *testing.T) {
	clients := HomogeneousClients(Inception, 50, 2, 3)
	plan, err := Plan(clients, PlanFair, GTX1080Ti)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(Config{Scheduler: SchedulerOlympian}, clients)
	if err != nil {
		t.Fatal(err)
	}
	sim := res.FinishTimes()
	for i := range clients {
		ratio := plan[i].Seconds() / sim[i].Seconds()
		if ratio < 0.85 || ratio > 1.15 {
			t.Fatalf("client %d: planned %v vs simulated %v", i, plan[i], sim[i])
		}
	}
}

package cluster

import (
	"testing"
	"time"

	"olympian/internal/faults"
	"olympian/internal/gpu"
	"olympian/internal/model"
	"olympian/internal/overload"
	"olympian/internal/sim"
)

// testRouter builds a bare router over n devices with a constant debt unit.
func testRouter(env *sim.Env, n int, policy RoutePolicy) *Router {
	return newRouter(env, n, policy, func(string) (time.Duration, error) {
		return time.Millisecond, nil
	})
}

func TestRouteDegradesWhenAllReplicasDown(t *testing.T) {
	env := sim.NewEnv(1)
	rt := testRouter(env, 2, RoundRobin)
	until := sim.Time(0).Add(10 * time.Millisecond)
	rt.MarkDown(0, until)
	rt.MarkDown(1, until)
	// Every replica down: the router must still route (queueing at a wedged
	// device beats failing outright) rather than error.
	seen := make(map[int]bool)
	for i := 0; i < 4; i++ {
		dev, err := rt.Route(model.Inception, false)
		if err != nil {
			t.Fatalf("route with all replicas down errored: %v", err)
		}
		seen[dev] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("degraded routing used devices %v, want both", seen)
	}
}

func TestDownBoundaryAtDownUntil(t *testing.T) {
	env := sim.NewEnv(1)
	rt := testRouter(env, 2, RoundRobin)
	until := sim.Time(0).Add(5 * time.Millisecond)
	rt.MarkDown(0, until)
	if !rt.Down(0) {
		t.Fatal("device 0 not down immediately after MarkDown")
	}
	// MarkDown never shrinks an existing window.
	rt.MarkDown(0, sim.Time(0).Add(time.Millisecond))
	if rt.downUntil[0] != until {
		t.Fatalf("shorter MarkDown shrank the window to %v, want %v", rt.downUntil[0], until)
	}
	env.Go("probe", func(p *sim.Proc) {
		p.Sleep(5*time.Millisecond - time.Nanosecond)
		if !rt.Down(0) {
			t.Error("device 0 back up one tick before downUntil")
		}
		p.Sleep(time.Nanosecond) // env.Now() == downUntil exactly
		if rt.Down(0) {
			t.Error("device 0 still down at env.Now() == downUntil (boundary must be exclusive)")
		}
		// Routing at the boundary must prefer the recovered device pool.
		if _, err := rt.Route(model.Inception, false); err != nil {
			t.Errorf("route at recovery boundary: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	rt.MarkDown(1, sim.Time(0).Add(time.Hour))
	rt.MarkUp(1)
	if rt.Down(1) {
		t.Fatal("MarkUp did not return the device to rotation")
	}
}

func TestRouteHedgeExcludesBusyReplicas(t *testing.T) {
	env := sim.NewEnv(1)
	rt := testRouter(env, 2, LeastOutstanding)
	dev, err := rt.RouteHedge(model.Inception, []int{0})
	if err != nil {
		t.Fatalf("RouteHedge: %v", err)
	}
	if dev != 1 {
		t.Fatalf("hedge routed to excluded-adjacent device %d, want 1", dev)
	}
	if _, err := rt.RouteHedge(model.Inception, []int{0, 1}); err == nil {
		t.Fatal("RouteHedge with every replica excluded succeeded, want error")
	}
	decs := rt.Decisions()
	if len(decs) != 1 || !decs[0].Hedge {
		t.Fatalf("decision log %+v, want exactly one hedge-marked decision", decs)
	}
}

func TestHedgedRequestsFirstWinNoDoubleCount(t *testing.T) {
	plans := []*faults.Plan{
		{StallEvery: 15 * time.Millisecond, StallDur: 50 * time.Millisecond},
		nil,
	}
	c := newSingleHeap(t, Config{
		Seed: 9, Devices: twoDevices(), Faults: plans,
		Route: RoundRobin, MaxBatch: 8, BatchTimeout: 4 * time.Millisecond,
		HedgeDelay: 20 * time.Millisecond,
	})
	const n = 60
	runTraffic(t, c, []string{model.Inception}, n, 700*time.Microsecond)
	st := c.Stats()
	if st.Hedges == 0 {
		t.Fatal("stalled device produced no hedges; hedge timer never engaged")
	}
	// First completion wins, the loser is cancelled: every request settles
	// exactly once, so hedging must never inflate the completion count.
	if st.Completed+st.Failed != st.Requests {
		t.Fatalf("completed %d + failed %d != requests %d (hedges double-counted?)",
			st.Completed, st.Failed, st.Requests)
	}
	if st.Requests != n {
		t.Fatalf("%d requests recorded, want %d", st.Requests, n)
	}
	hedgeDecs := 0
	for _, d := range c.Router().Decisions() {
		if d.Hedge {
			hedgeDecs++
		}
	}
	if hedgeDecs != st.Hedges {
		t.Fatalf("decision log has %d hedge dispatches, stats say %d", hedgeDecs, st.Hedges)
	}
	if st.HedgeWins > st.Hedges {
		t.Fatalf("hedge wins %d exceed hedges %d", st.HedgeWins, st.Hedges)
	}
	// Losers are cancelled through the serving layer; a hedge that lost (or
	// a primary beaten by its hedge) shows up in the cancel tally.
	if st.Degraded.Canceled == 0 {
		t.Fatal("no cancelled losers despite hedged races")
	}
}

func TestHedgedClusterIsDeterministic(t *testing.T) {
	run := func() (Stats, uint64) {
		plans := []*faults.Plan{
			{StallEvery: 15 * time.Millisecond, StallDur: 50 * time.Millisecond},
			nil,
		}
		c := newSingleHeap(t, Config{
			Seed: 9, Devices: twoDevices(), Faults: plans,
			Route: RoundRobin, MaxBatch: 8, BatchTimeout: 4 * time.Millisecond,
			HedgeDelay: 20 * time.Millisecond,
		})
		runTraffic(t, c, []string{model.Inception}, 60, 700*time.Microsecond)
		st := c.Stats()
		return st, st.DecisionHash
	}
	st1, h1 := run()
	st2, h2 := run()
	if h1 != h2 {
		t.Fatalf("same-seed hedged runs produced different decision hashes %x vs %x", h1, h2)
	}
	if st1.Hedges != st2.Hedges || st1.HedgeWins != st2.HedgeWins || st1.Completed != st2.Completed {
		t.Fatalf("same-seed hedged runs diverged:\n%+v\n%+v", st1, st2)
	}
}

func TestSubmitClassPropagatesToServing(t *testing.T) {
	c := newSingleHeap(t, Config{Seed: 4, Devices: []gpu.Spec{gpu.GTX1080Ti}})
	driveSharded(t, c, shardedScenario{
		name: "batch-class", models: []string{model.Inception},
		classes: []overload.Class{overload.Batch}, n: 1,
	})
	bc := c.Server(0).Stats().Degraded.ByClass[0]
	if bc.Submitted != 1 || bc.Completed != 1 {
		t.Fatalf("batch-class serving tally %+v, want 1 submitted and completed", bc)
	}
}

// TestMarkDeadNeverExpiresByTimer: the crash-recovery distinction — a dead
// device must stay out of rotation no matter how much virtual time passes or
// what transient state changes land; only Revive re-admits it.
func TestMarkDeadNeverExpiresByTimer(t *testing.T) {
	env := sim.NewEnv(1)
	rt := testRouter(env, 2, RoundRobin)
	rt.MarkDead(0)
	if !rt.Dead(0) {
		t.Fatal("device 0 not dead after MarkDead")
	}
	// A stale transient window around the crash must not matter either way.
	rt.MarkDown(0, sim.Time(0).Add(time.Millisecond))
	// MarkUp clears the transient state but must not resurrect the dead.
	rt.MarkUp(0)
	if !rt.Dead(0) {
		t.Fatal("MarkUp resurrected a dead device")
	}
	env.Go("probe", func(p *sim.Proc) {
		p.Sleep(time.Hour) // any transient window has long expired
		for i := 0; i < 4; i++ {
			dev, err := rt.Route(model.Inception, false)
			if err != nil {
				t.Errorf("route with one live replica errored: %v", err)
				return
			}
			if dev == 0 {
				t.Error("routed to a dead device after its transient window expired")
				return
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
}

// TestReviveReadmitsAndClearsTransient: Revive undoes MarkDead and wipes any
// leftover down window, so a warmed replica re-enters rotation immediately.
func TestReviveReadmitsAndClearsTransient(t *testing.T) {
	env := sim.NewEnv(1)
	rt := testRouter(env, 2, RoundRobin)
	rt.MarkDead(0)
	rt.MarkDown(0, sim.Time(0).Add(time.Hour))
	rt.Revive(0)
	if rt.Dead(0) {
		t.Fatal("device 0 still dead after Revive")
	}
	if rt.Down(0) {
		t.Fatal("Revive left a stale transient down window")
	}
	seen := make(map[int]bool)
	for i := 0; i < 4; i++ {
		dev, err := rt.Route(model.Inception, false)
		if err != nil {
			t.Fatalf("route after revive errored: %v", err)
		}
		seen[dev] = true
	}
	if !seen[0] {
		t.Fatalf("revived device never routed to: %v", seen)
	}
}

// TestRouteDeadBeatsDownDegradation: with every live replica transiently
// down the router degrades to routing among them — but never onto a dead
// one; and with every replica dead it errors rather than dispatching into
// the void.
func TestRouteDeadBeatsDownDegradation(t *testing.T) {
	env := sim.NewEnv(1)
	rt := testRouter(env, 2, RoundRobin)
	rt.MarkDead(0)
	rt.MarkDown(1, sim.Time(0).Add(10*time.Millisecond))
	for i := 0; i < 4; i++ {
		dev, err := rt.Route(model.Inception, false)
		if err != nil {
			t.Fatalf("route with a down-but-live replica errored: %v", err)
		}
		if dev != 1 {
			t.Fatalf("routed to dead device %d; the down-but-live replica must absorb traffic", dev)
		}
	}
	rt.MarkDead(1)
	if _, err := rt.Route(model.Inception, false); err == nil {
		t.Fatal("route with every replica dead did not error")
	}
}

func TestRouteLeastKVPressure(t *testing.T) {
	env := sim.NewEnv(1)
	rt := testRouter(env, 3, LeastKVPressure)
	rt.SetPressure(0, 0.9)
	rt.SetPressure(1, 0.2)
	rt.SetPressure(2, 0.7)
	dev, err := rt.Route(model.Inception, false)
	if err != nil {
		t.Fatal(err)
	}
	if dev != 1 {
		t.Fatalf("routed to device %d, want least-pressure device 1", dev)
	}
	// Pressure dominates outstanding: device 1 stays preferred while its
	// utilization is lowest, however much it already holds.
	for i := 0; i < 3; i++ {
		if dev, _ := rt.Route(model.Inception, false); dev != 1 {
			t.Fatalf("routed to device %d, want 1 while it reports least pressure", dev)
		}
	}
	// A fresh report flips the ordering.
	rt.SetPressure(1, 0.95)
	if dev, _ := rt.Route(model.Inception, false); dev != 2 {
		t.Fatalf("routed to device %d after pressure update, want 2", dev)
	}
	if rt.Pressure(1) != 0.95 {
		t.Fatalf("pressure readback %v, want 0.95", rt.Pressure(1))
	}
}

func TestRouteLeastKVPressureTiesBreakDeterministically(t *testing.T) {
	env := sim.NewEnv(1)
	rt := testRouter(env, 3, LeastKVPressure)
	// Equal pressure everywhere: ties fall to least outstanding, then lowest
	// device id — the deterministic candidate order.
	if dev, _ := rt.Route(model.Inception, false); dev != 0 {
		t.Fatalf("first route to device %d, want 0", dev)
	}
	// Device 0 now holds one outstanding request; the tie moves on.
	if dev, _ := rt.Route(model.Inception, false); dev != 1 {
		t.Fatalf("second route to device %d, want 1", dev)
	}
	if dev, _ := rt.Route(model.Inception, false); dev != 2 {
		t.Fatalf("third route to device %d, want 2", dev)
	}
	rt.release(1)
	rt.release(2)
	rt.release(0)
	if dev, _ := rt.Route(model.Inception, false); dev != 0 {
		t.Fatalf("post-release route to device %d, want 0", dev)
	}
}

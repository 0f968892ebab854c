package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// runShardMesh drives a small message mesh: every shard runs a process that
// sleeps on its own pattern and sends tagged messages around the ring, and
// receipt callbacks occasionally ack back to the sender. It returns one
// receipt log per shard, recorded with the receiving shard's clock.
func runShardMesh(single bool) [][]string {
	const n = 3
	s := NewShards(ShardsConfig{N: n, Lookahead: 20 * time.Microsecond, Seed: 7, SingleHeap: single})
	logs := make([][]string, n)
	for i := 0; i < n; i++ {
		i := i
		env := s.Env(i)
		env.Go(fmt.Sprintf("shard-%d", i), func(p *Proc) {
			for k := 0; k < 20; k++ {
				p.Sleep(time.Duration(1+(i*7+k*13)%5) * time.Millisecond)
				to := (i + 1) % n
				k := k
				s.Send(i, to, time.Duration(k%3)*time.Microsecond, func() {
					logs[to] = append(logs[to], fmt.Sprintf("%d<-%d k=%d @%v", to, i, k, s.Env(to).Now()))
					if k%2 == 0 {
						s.Send(to, i, 30*time.Microsecond, func() {
							logs[i] = append(logs[i], fmt.Sprintf("ack %d<-%d k=%d @%v", i, to, k, s.Env(i).Now()))
						})
					}
				})
			}
		})
	}
	if err := s.Run(); err != nil {
		panic(err)
	}
	s.Shutdown()
	return logs
}

// TestShardsEnginesIdentical is the core invariant: the single-heap
// reference engine and the sharded engine produce identical per-shard
// receipt sequences and timestamps.
func TestShardsEnginesIdentical(t *testing.T) {
	ref := runShardMesh(true)
	if got := runShardMesh(false); !reflect.DeepEqual(ref, got) {
		t.Errorf("logs diverge from single-heap reference\nref: %v\ngot: %v", ref, got)
	}
	// The mesh must actually have exchanged messages (20 sends per shard
	// plus acks for even k).
	total := 0
	for _, l := range ref {
		total += len(l)
	}
	if want := 3 * 30; total != want {
		t.Fatalf("expected %d receipts, got %d", want, total)
	}
}

// TestShardsLookaheadClamp checks that sub-lookahead sends are delayed to
// exactly the lookahead bound.
func TestShardsLookaheadClamp(t *testing.T) {
	for _, single := range []bool{true, false} {
		s := NewShards(ShardsConfig{N: 2, Lookahead: 100 * time.Microsecond, Seed: 1, SingleHeap: single})
		var at Time
		s.Env(0).Schedule(time.Millisecond, func() {
			s.Send(0, 1, 0, func() { at = s.Env(1).Now() })
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if want := Time(time.Millisecond + 100*time.Microsecond); at != want {
			t.Errorf("single=%v: message delivered at %v, want %v", single, at, want)
		}
		s.Shutdown()
	}
}

// TestShardsDeadlock: a process parked forever on one shard must surface as
// a deadlock once every heap drains, on both engines.
func TestShardsDeadlock(t *testing.T) {
	for _, single := range []bool{true, false} {
		s := NewShards(ShardsConfig{N: 2, Seed: 1, SingleHeap: single})
		ev := s.Env(1).NewEvent()
		s.Env(1).Go("stuck-waiter", func(p *Proc) { ev.Wait(p) })
		s.Env(0).Schedule(time.Millisecond, func() {})
		err := s.Run()
		if err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Errorf("single=%v: expected deadlock error, got %v", single, err)
		}
		s.Shutdown()
	}
}

// TestShardsStop: Stop on any shard halts the whole run cleanly even though
// other shards still have work queued.
func TestShardsStop(t *testing.T) {
	for _, single := range []bool{true, false} {
		s := NewShards(ShardsConfig{N: 2, Seed: 1, SingleHeap: single})
		s.Env(1).Go("ticker", func(p *Proc) {
			for {
				p.Sleep(100 * time.Microsecond)
			}
		})
		s.Env(0).Schedule(time.Millisecond, func() { s.Env(0).Stop() })
		if err := s.Run(); err != nil {
			t.Errorf("single=%v: %v", single, err)
		}
		s.Shutdown()
	}
}

// TestShardsHorizon: the horizon is the max shard clock after a run.
func TestShardsHorizon(t *testing.T) {
	s := NewShards(ShardsConfig{N: 2, Seed: 1})
	s.Env(0).Schedule(time.Millisecond, func() {})
	s.Env(1).Schedule(3*time.Millisecond, func() {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.Horizon(); got != Time(3*time.Millisecond) {
		t.Errorf("horizon %v, want 3ms", got)
	}
}

// TestEventSubscribe covers the no-goroutine completion path on an event
// held by value: callbacks run after waiters and in registration order
// (the first one sits in the inline slot, the rest in the overflow list),
// a Reset event orders its next subscribers the same way, and subscribing
// after the trigger still fires.
func TestEventSubscribe(t *testing.T) {
	env := NewEnv(1)
	ev := env.MakeEvent()
	var order []string
	env.Go("waiter", func(p *Proc) {
		ev.Wait(p)
		order = append(order, "waiter")
	})
	for _, name := range []string{"sub1", "sub2", "sub3"} {
		ev.Subscribe(func() { order = append(order, name) })
	}
	env.Schedule(time.Millisecond, func() { ev.Trigger() })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"waiter", "sub1", "sub2", "sub3"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}

	order = order[:0]
	ev.Reset()
	for _, name := range []string{"again1", "again2"} {
		ev.Subscribe(func() { order = append(order, name) })
	}
	ev.Trigger()
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"again1", "again2"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("after Reset: order %v, want %v", order, want)
	}

	fired := false
	ev.Subscribe(func() { fired = true })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("late Subscribe on triggered event did not fire")
	}
}

package sim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"olympian/internal/fifo"
)

// sliceCond is Cond written the plain way: its waiters are a slice that
// Signal shifts from the front, and it has no guard, so every wake-up
// switches into the waiter. The ring-backed Cond must wake the same procs
// in the same order.
type sliceCond struct {
	env     *Env
	waiters []*Proc
}

func (c *sliceCond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.park("cond:slice")
}

func (c *sliceCond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	c.waiters = slices.Delete(c.waiters, 0, 1)
	c.env.scheduleProc(0, p)
}

func (c *sliceCond) Broadcast() {
	for _, p := range c.waiters {
		c.env.scheduleProc(0, p)
	}
	c.waiters = c.waiters[:0]
}

type condVar interface {
	Wait(p *Proc)
	Signal()
	Broadcast()
}

// tokens is the condition the workload's procs wait on: a pass takes one
// token. As a guard it lets step re-queue a waiter woken with none left.
type tokens struct{ n int }

func (g *tokens) blocked() bool { return g.n <= 0 }

// condOp is one driver action after a gap: Signal with a fresh token,
// Signal with none (the woken waiter finds the condition false unless a
// token is left over), or Broadcast with a number of fresh tokens.
type condOp struct {
	kind   int // 0 signal, 1 futile signal, 2 broadcast
	tokens int
	gap    Duration
}

// condWorkload is a random schedule of waits and wake-ups: procs that wait
// for a token several times with random sleeps between, often zero so they
// barge past woken waiters, and a driver issuing random wake-ups.
type condWorkload struct {
	guarded bool
	sleeps  [][]Duration // per proc: the sleep before each of its passes
	ops     []condOp
}

func randomCondWorkload(rng *rand.Rand) condWorkload {
	w := condWorkload{guarded: rng.Intn(2) == 0}
	short := func(n int) Duration {
		if rng.Intn(3) == 0 {
			return 0
		}
		return Duration(rng.Intn(n)) * time.Microsecond
	}
	for range 1 + rng.Intn(48) {
		plan := make([]Duration, 1+rng.Intn(8))
		for i := range plan {
			plan[i] = short(6)
		}
		w.sleeps = append(w.sleeps, plan)
	}
	for range rng.Intn(300) {
		op := condOp{kind: rng.Intn(3), gap: short(3)}
		if op.kind == 2 {
			op.tokens = rng.Intn(4)
		}
		w.ops = append(w.ops, op)
	}
	return w
}

// condTrace is what a run observed: each proc's return from Wait and each
// pass (token taken), in order, and for the ring how often the driver saw
// its waiters wrap past the end and the largest ring it grew.
type condTrace struct {
	wakes, passes []grant
	wrapped       int
	maxRing       int
}

// run plays the workload on the ring-backed Cond (ring true) or on
// sliceCond. The ring's Cond carries the tokens guard when the workload is
// guarded; sliceCond never does.
func (w condWorkload) run(t *testing.T, ring bool) condTrace {
	env := NewEnv(1)
	g := &tokens{}
	var rc *Cond
	var c condVar = &sliceCond{env: env}
	if ring {
		rc = env.NewCond("ring")
		if w.guarded {
			rc.guard = g
		}
		c = rc
	}
	var tr condTrace
	for i, plan := range w.sleeps {
		env.Go("waiter", func(p *Proc) {
			for _, d := range plan {
				if d > 0 {
					p.Sleep(d)
				}
				for g.blocked() {
					c.Wait(p)
					tr.wakes = append(tr.wakes, grant{i, p.Now()})
				}
				g.n--
				tr.passes = append(tr.passes, grant{i, p.Now()})
			}
		})
	}
	env.Go("driver", func(p *Proc) {
		for _, op := range w.ops {
			if op.gap > 0 {
				p.Sleep(op.gap)
			}
			switch op.kind {
			case 0:
				g.n++
				c.Signal()
			case 1:
				c.Signal()
			case 2:
				g.n += op.tokens
				c.Broadcast()
			}
			if rc != nil {
				head, n, size := ringShape(&rc.waiters)
				if head+n > size {
					tr.wrapped++
				}
				tr.maxRing = max(tr.maxRing, size)
			}
		}
		g.n += 1 << 20
		c.Broadcast()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	return tr
}

// Property: on random schedules of Wait, Signal and Broadcast, with and
// without the guard's re-queues, the ring-backed Cond lets the same procs
// through in the same order at the same times as the plain slice FIFO, and
// unguarded it wakes the same procs in the same order. The schedules must
// drive the ring through wrap-around and growth.
func TestPropertyCondRingMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	wrapped, maxRing := 0, 0
	for c := 0; c < 300; c++ {
		w := randomCondWorkload(rng)
		want := w.run(t, false)
		got := w.run(t, true)
		if !slices.Equal(got.passes, want.passes) {
			t.Fatalf("case %d (guarded %v, %d procs, %d ops): passes\n%v\nslice FIFO\n%v",
				c, w.guarded, len(w.sleeps), len(w.ops), got.passes, want.passes)
		}
		if !w.guarded && !slices.Equal(got.wakes, want.wakes) {
			t.Fatalf("case %d (%d procs, %d ops): wake-ups\n%v\nslice FIFO\n%v",
				c, len(w.sleeps), len(w.ops), got.wakes, want.wakes)
		}
		if got.wrapped > 0 {
			wrapped++
		}
		maxRing = max(maxRing, got.maxRing)
	}
	if wrapped < 50 || maxRing < 32 {
		t.Fatalf("%d of 300 cases wrapped the ring, largest ring %d: the generator no longer exercises wrap-around and growth", wrapped, maxRing)
	}
	t.Logf("%d of 300 cases wrapped the ring; largest ring %d", wrapped, maxRing)
}

// TestCondSize: the ring costs the Cond no size. It stays 64 bytes, so a
// Semaphore or WaitGroup (a Cond and an int) stays in the 80-byte class;
// the executor allocates one of each per job.
func TestCondSize(t *testing.T) {
	if n := unsafe.Sizeof(Cond{}); n > 64 {
		t.Fatalf("Cond is %d bytes, want at most 64", n)
	}
}

// ringShape reads a waiter ring's head index, length and buffer size, which
// fifo keeps unexported.
func ringShape(q *fifo.Ring[*Proc]) (head, n, size int) {
	v := reflect.ValueOf(q).Elem()
	return int(v.FieldByName("head").Int()), q.Len(), v.FieldByName("buf").Len()
}

package llm

import (
	"math/rand"
	"testing"

	"olympian/internal/overload"
	"olympian/internal/sim"
)

// refBatcher is the single-slice prefill queue the Batcher is specified
// against: one FCFS slice, requeues copied in at the head, and NextPrefill
// scanning for the first request of the highest waiting class.
type refBatcher struct {
	maxSeqs int

	queue   []*Request
	ready   []*Request
	running []*Request
}

func (b *refBatcher) Enqueue(r *Request) { b.queue = append(b.queue, r) }

func (b *refBatcher) EnqueueFront(r *Request) {
	b.queue = append([]*Request{r}, b.queue...)
}

func (b *refBatcher) QueueLen() int { return len(b.queue) }

func (b *refBatcher) HasWork() bool {
	return len(b.queue) > 0 || len(b.ready) > 0 || len(b.running) > 0
}

func (b *refBatcher) NextPrefill() *Request {
	if len(b.queue) == 0 || len(b.running)+len(b.ready) >= b.maxSeqs {
		return nil
	}
	pick := 0
	for i, r := range b.queue {
		if r.Class > b.queue[pick].Class {
			pick = i
		}
	}
	r := b.queue[pick]
	b.queue = append(b.queue[:pick], b.queue[pick+1:]...)
	return r
}

func (b *refBatcher) Admit(r *Request) { b.ready = append(b.ready, r) }

func (b *refBatcher) PromoteOne() *Request {
	if len(b.ready) == 0 || len(b.running) >= b.maxSeqs {
		return nil
	}
	r := b.ready[0]
	b.ready = b.ready[1:]
	b.running = append(b.running, r)
	return r
}

func (b *refBatcher) Leave(r *Request) {
	for i, x := range b.running {
		if x == r {
			b.running = append(b.running[:i], b.running[i+1:]...)
			return
		}
	}
}

func (b *refBatcher) Victim() *Request {
	if len(b.running) < 2 {
		return nil
	}
	vi := 0
	for i, r := range b.running[1:] {
		v := b.running[vi]
		if r.Class < v.Class || (r.Class == v.Class && r.ID > v.ID) {
			vi = i + 1
		}
	}
	v := b.running[vi]
	b.running = append(b.running[:vi], b.running[vi+1:]...)
	return v
}

func (b *refBatcher) TakeAll() (queued, ready, running []*Request) {
	queued, ready, running = b.queue, b.ready, b.running
	b.queue, b.ready, b.running = nil, nil, nil
	return queued, ready, running
}

func sameRequests(t *testing.T, op int, what string, got, want []*Request) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("op %d: %s has %d requests, reference %d", op, what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("op %d: %s[%d] = request %d, reference %d", op, what, i, got[i].ID, want[i].ID)
		}
	}
}

// TestBatcherMatchesSingleSliceReference drives seeded random operations
// through the Batcher and the single-slice reference side by side and
// requires the same pops, counts and TakeAll order after every one.
func TestBatcherMatchesSingleSliceReference(t *testing.T) {
	const ops = 10000
	env := sim.NewEnv(1)
	rng := rand.New(rand.NewSource(15))
	b, ref := NewBatcher(3), &refBatcher{maxSeqs: 3}
	// held are requests out of both batchers: popped for prefill or
	// preempted, waiting to be admitted or requeued.
	var held []*Request
	nextID := 0
	fresh := func() *Request {
		class := overload.Class(rng.Intn(int(overload.NumClasses)))
		r := newRequest(env, nextID, "m", class, 1+rng.Intn(64), 1+rng.Intn(16), 0)
		nextID++
		return r
	}
	takeHeld := func() *Request {
		if len(held) == 0 {
			return nil
		}
		i := rng.Intn(len(held))
		r := held[i]
		held[i] = held[len(held)-1]
		held = held[:len(held)-1]
		return r
	}
	var blocked, takeAlls, maxQueue int
	for op := 0; op < ops; op++ {
		var got, want *Request
		switch k := rng.Intn(100); {
		case k < 25:
			r := fresh()
			b.Enqueue(r)
			ref.Enqueue(r)
		case k < 40:
			r := takeHeld()
			if r == nil {
				r = fresh()
			}
			b.EnqueueFront(r)
			ref.EnqueueFront(r)
		case k < 60:
			got, want = b.NextPrefill(), ref.NextPrefill()
			if want == nil && ref.QueueLen() > 0 {
				blocked++
			}
			if got != nil {
				held = append(held, got)
			}
		case k < 70:
			if r := takeHeld(); r != nil {
				b.Admit(r)
				ref.Admit(r)
			}
		case k < 80:
			got, want = b.PromoteOne(), ref.PromoteOne()
		case k < 87:
			if n := len(ref.running); n > 0 {
				r := ref.running[rng.Intn(n)]
				b.Leave(r)
				ref.Leave(r)
			}
		case k < 99:
			got, want = b.Victim(), ref.Victim()
			if got != nil {
				held = append(held, got)
			}
		default:
			gq, gr, grun := b.TakeAll()
			wq, wr, wrun := ref.TakeAll()
			sameRequests(t, op, "TakeAll queued", gq, wq)
			sameRequests(t, op, "TakeAll ready", gr, wr)
			sameRequests(t, op, "TakeAll running", grun, wrun)
			takeAlls++
		}
		if got != want {
			t.Fatalf("op %d: batcher returned %v, reference %v", op, got, want)
		}
		if b.QueueLen() != ref.QueueLen() || b.HasWork() != ref.HasWork() || b.ready.Len() != len(ref.ready) {
			t.Fatalf("op %d: queue/work/ready = %d/%v/%d, reference %d/%v/%d", op,
				b.QueueLen(), b.HasWork(), b.ready.Len(), ref.QueueLen(), ref.HasWork(), len(ref.ready))
		}
		sameRequests(t, op, "Running", b.Running(), ref.running)
		maxQueue = max(maxQueue, ref.QueueLen())
	}
	t.Logf("%d full-batch NextPrefills, %d TakeAlls, max queue %d", blocked, takeAlls, maxQueue)
	if blocked < 100 || takeAlls < 20 || maxQueue < 50 {
		t.Fatalf("weak coverage: %d full-batch NextPrefills, %d TakeAlls, max queue %d", blocked, takeAlls, maxQueue)
	}
}

// requeueBatcher holds a 1,000-entry mixed-class prefill queue with free
// slots, so every NextPrefill pops and the popped request can go back.
func requeueBatcher() *Batcher {
	env := sim.NewEnv(1)
	b := NewBatcher(8)
	for id := range 1000 {
		b.Enqueue(newRequest(env, id, "m", overload.Class(id%int(overload.NumClasses)), 8, 4, 0))
	}
	return b
}

// TestPrefillRequeueAllocFree pins the KV-starved replica's loop: pop the
// head recompute, fail to grow it, put it back in front. In steady state
// the cycle must not allocate.
func TestPrefillRequeueAllocFree(t *testing.T) {
	b := requeueBatcher()
	allocs := testing.AllocsPerRun(1000, func() {
		b.EnqueueFront(b.NextPrefill())
	})
	if allocs != 0 {
		t.Fatalf("NextPrefill -> EnqueueFront allocates %.1f times per cycle, want 0", allocs)
	}
	if b.QueueLen() != 1000 {
		t.Fatalf("queue length drifted to %d", b.QueueLen())
	}
}

// TestBatcherReadyAllocsZero pins the decode replica's membership cycle: a
// burst of sequences lands in the ready set, and as many of the oldest ready
// ones join the batch and later leave it. Once the ready ring has grown, the
// cycle must not allocate; a slice popped from the front reallocated about
// once per cycle.
func TestBatcherReadyAllocsZero(t *testing.T) {
	env := sim.NewEnv(1)
	b := NewBatcher(4)
	rs := make([]*Request, 16)
	for i := range rs {
		rs[i] = newReq(env, i)
	}
	// A backlog of three keeps the ring non-empty, so the cycle wraps it.
	for _, r := range rs[:3] {
		b.Admit(r)
	}
	i := 3
	allocs := testing.AllocsPerRun(1000, func() {
		for range 4 {
			b.Admit(rs[i%len(rs)])
			i++
		}
		for range 4 {
			b.Leave(b.PromoteOne())
		}
	})
	if allocs != 0 {
		t.Fatalf("Admit -> PromoteOne -> Leave allocates %.2f times per cycle, want 0", allocs)
	}
	if b.ready.Len() != 3 || len(b.Running()) != 0 {
		t.Fatalf("ready/running drifted to %d/%d", b.ready.Len(), len(b.Running()))
	}
}

func BenchmarkPrefillRequeue(b *testing.B) {
	bt := requeueBatcher()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		bt.EnqueueFront(bt.NextPrefill())
	}
}

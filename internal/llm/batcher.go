package llm

import (
	"slices"

	"olympian/internal/fifo"
	"olympian/internal/overload"
)

// Batcher is the continuous-batching membership policy: which sequences are
// waiting for prefill, which have KV resident and wait for a batch slot, and
// which are in the in-flight decode batch. Sequences join and leave the
// batch only at token boundaries — between decode steps — instead of the
// fixed batch-then-flush of the CNN path.
//
// The batch is bounded by min(MaxSeqs, MaxBatchTokens): every decode
// sequence contributes exactly one token per step, so the token budget caps
// the batch width; a prefill pass processes its whole prompt in one kernel
// and therefore always runs alone (chunked prefill is out of scope).
//
// The Batcher is pure bookkeeping — no clock, no randomness — so both
// cluster engines drive bit-identical membership sequences through it.
//
// The prefill queue is one ring per class. Each entry carries an order key —
// Enqueue takes back++, EnqueueFront takes --front — so the global FCFS order
// across classes is key order. The ready set is one more ring, a plain
// FIFO. Every queue operation except the crash-time TakeAll is O(1)
// and allocation-free once the rings have grown.
type Batcher struct {
	maxSeqs int

	queue       [overload.NumClasses]fifo.Ring[entry] // waiting for (re)prefill, one ring per class
	front, back int64                                 // order-key bounds of the queue
	queued      int                                   // total across the rings

	ready   fifo.Ring[*Request] // prefilled, KV resident, waiting for a slot
	running []*Request          // in-flight decode batch, in join order
}

// NewBatcher bounds the decode batch by maxSeqs (> 0) sequences.
func NewBatcher(maxSeqs int) *Batcher { return &Batcher{maxSeqs: maxSeqs} }

// Enqueue appends a request to the prefill queue. Its Class must be valid.
func (b *Batcher) Enqueue(r *Request) {
	b.queue[r.Class].PushBack(entry{r, b.back})
	b.back++
	b.queued++
}

// EnqueueFront puts a preempted request at the head of the prefill queue:
// recomputation preserves its position ahead of newer arrivals.
func (b *Batcher) EnqueueFront(r *Request) {
	b.front--
	b.queue[r.Class].PushFront(entry{r, b.front})
	b.queued++
}

// QueueLen returns how many requests are waiting for prefill.
func (b *Batcher) QueueLen() int { return b.queued }

// Running returns the in-flight decode batch in join order. Callers must not
// mutate the slice.
func (b *Batcher) Running() []*Request { return b.running }

// HasWork reports whether anything is queued, ready, or running.
func (b *Batcher) HasWork() bool {
	return b.queued > 0 || b.ready.Len() > 0 || len(b.running) > 0
}

// Idle reports the opposite of HasWork.
func (b *Batcher) Idle() bool { return !b.HasWork() }

// NextPrefill pops the next prefill candidate when a slot could eventually
// absorb it — prefilling a sequence the batch has no room for would only pin
// KV. Selection is class-then-FCFS: the first request of the highest waiting
// class wins, so under overload interactive prompts do not queue behind a
// backlog of batch work (within one class the order is strict FCFS, and
// preempted sequences re-entered at the front keep their place).
func (b *Batcher) NextPrefill() *Request {
	if b.queued == 0 || len(b.running)+b.ready.Len() >= b.maxSeqs {
		return nil
	}
	c := len(b.queue) - 1
	for b.queue[c].Len() == 0 {
		c--
	}
	b.queued--
	return b.queue[c].PopFront().r
}

// Admit marks a prefilled (or ingested) sequence ready to join the batch at
// the next token boundary.
func (b *Batcher) Admit(r *Request) { b.ready.PushBack(r) }

// PromoteOne joins the oldest ready sequence to the batch and returns it;
// nil when none is ready or the batch is full.
func (b *Batcher) PromoteOne() *Request {
	if b.ready.Len() == 0 || len(b.running) >= b.maxSeqs {
		return nil
	}
	r := b.ready.PopFront()
	b.running = append(b.running, r)
	return r
}

// Leave removes a finished (or failed) sequence from the running batch — the
// token-boundary leave.
func (b *Batcher) Leave(r *Request) {
	for i, x := range b.running {
		if x == r {
			b.running = slices.Delete(b.running, i, i+1)
			return
		}
	}
}

// Victim picks and removes the preemption victim, class-aware: the lowest
// priority class first (batch pays for KV pressure before interactive), and
// within a class the newest sequence (highest local ID — the latest arrival
// has the least sunk cost). With one or zero sequences running it returns
// nil: a sequence that cannot grow even alone must fail, not self-preempt
// forever.
func (b *Batcher) Victim() *Request {
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
	b.running = slices.Delete(b.running, vi, vi+1)
	return v
}

// KVTokens sums the cache footprint of the running batch — the k in the
// decode-step cost model.
func (b *Batcher) KVTokens() int {
	total := 0
	for _, r := range b.running {
		total += r.KVTokens()
	}
	return total
}

// TakeAll empties every set and returns the former members in queue, ready,
// running order — crash unwinding fails them all. The per-class rings merge
// by order key, so queued comes back in global FCFS order; ready is copied
// out of its ring.
func (b *Batcher) TakeAll() (queued, ready, running []*Request) {
	if b.queued > 0 {
		queued = make([]*Request, 0, b.queued)
	}
	for range b.queued {
		c := -1
		for i := range b.queue {
			if b.queue[i].Len() > 0 && (c < 0 || b.queue[i].At(0).key < b.queue[c].At(0).key) {
				c = i
			}
		}
		queued = append(queued, b.queue[c].PopFront().r)
	}
	if b.ready.Len() > 0 {
		ready = make([]*Request, 0, b.ready.Len())
	}
	for b.ready.Len() > 0 {
		ready = append(ready, b.ready.PopFront())
	}
	running = b.running
	b.queued, b.front, b.back = 0, 0, 0
	b.running = nil
	return queued, ready, running
}

// entry is one prefill-queue slot: the request and its global order key.
type entry struct {
	r   *Request
	key int64
}

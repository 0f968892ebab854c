package llm

import "olympian/internal/overload"

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
// The prefill queue is one deque per class. Each entry carries an order key —
// Enqueue takes back++, EnqueueFront takes --front — so the global FCFS order
// across classes is key order, and every queue operation except the crash-time
// TakeAll is O(1) and allocation-free once the deques have grown.
type Batcher struct {
	maxSeqs int

	queue       [overload.NumClasses]deque // waiting for (re)prefill, one deque per class
	front, back int64                      // order-key bounds of the queue
	queued      int                        // total across the deques

	ready   []*Request // prefilled, KV resident, waiting for a slot
	running []*Request // in-flight decode batch, in join order
}

// NewBatcher bounds the decode batch by maxSeqs sequences and maxBatchTokens
// decode tokens per step (≤0 means unbounded for that knob; both unbounded
// defaults to 8 slots).
func NewBatcher(maxSeqs, maxBatchTokens int) *Batcher {
	slots := maxSeqs
	if slots <= 0 || (maxBatchTokens > 0 && maxBatchTokens < slots) {
		slots = maxBatchTokens
	}
	if slots <= 0 {
		slots = 8
	}
	return &Batcher{maxSeqs: slots}
}

// Slots returns the effective batch bound.
func (b *Batcher) Slots() int { return b.maxSeqs }

// Enqueue appends a request to the prefill queue. Its Class must be valid.
func (b *Batcher) Enqueue(r *Request) {
	b.queue[r.Class].pushBack(entry{r, b.back})
	b.back++
	b.queued++
}

// EnqueueFront puts a preempted request at the head of the prefill queue:
// recomputation preserves its position ahead of newer arrivals.
func (b *Batcher) EnqueueFront(r *Request) {
	b.front--
	b.queue[r.Class].pushFront(entry{r, b.front})
	b.queued++
}

// QueueLen returns how many requests are waiting for prefill.
func (b *Batcher) QueueLen() int { return b.queued }

// Ready returns how many prefilled sequences are waiting for a slot.
func (b *Batcher) Ready() int { return len(b.ready) }

// Running returns the in-flight decode batch in join order. Callers must not
// mutate the slice.
func (b *Batcher) Running() []*Request { return b.running }

// HasWork reports whether anything is queued, ready, or running.
func (b *Batcher) HasWork() bool {
	return b.queued > 0 || len(b.ready) > 0 || len(b.running) > 0
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
	if b.queued == 0 || len(b.running)+len(b.ready) >= b.maxSeqs {
		return nil
	}
	c := len(b.queue) - 1
	for b.queue[c].n == 0 {
		c--
	}
	b.queued--
	return b.queue[c].popFront().r
}

// Admit marks a prefilled (or ingested) sequence ready to join the batch at
// the next token boundary.
func (b *Batcher) Admit(r *Request) { b.ready = append(b.ready, r) }

// PeekReady returns the next sequence Promote would admit, or nil when none
// is ready or the batch is full — time-budgeted engines inspect it before
// committing the join.
func (b *Batcher) PeekReady() *Request {
	if len(b.ready) == 0 || len(b.running) >= b.maxSeqs {
		return nil
	}
	return b.ready[0]
}

// PromoteOne joins exactly one ready sequence (the PeekReady one) to the
// batch; nil when none is admissible.
func (b *Batcher) PromoteOne() *Request {
	r := b.PeekReady()
	if r == nil {
		return nil
	}
	b.ready[0] = nil
	b.ready = b.ready[1:]
	b.running = append(b.running, r)
	return r
}

// Leave removes a finished (or failed) sequence from the running batch — the
// token-boundary leave.
func (b *Batcher) Leave(r *Request) {
	for i, x := range b.running {
		if x == r {
			b.running = append(b.running[:i], b.running[i+1:]...)
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
	b.running = append(b.running[:vi], b.running[vi+1:]...)
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
// running order — crash unwinding fails them all. The per-class deques merge
// by order key, so queued comes back in global FCFS order.
func (b *Batcher) TakeAll() (queued, ready, running []*Request) {
	if b.queued > 0 {
		queued = make([]*Request, 0, b.queued)
	}
	for range b.queued {
		c := -1
		for i := range b.queue {
			if b.queue[i].n > 0 && (c < 0 || b.queue[i].at(0).key < b.queue[c].at(0).key) {
				c = i
			}
		}
		queued = append(queued, b.queue[c].popFront().r)
	}
	ready, running = b.ready, b.running
	b.queued, b.front, b.back = 0, 0, 0
	b.ready, b.running = nil, nil
	return queued, ready, running
}

// entry is one prefill-queue slot: the request and its global order key.
type entry struct {
	r   *Request
	key int64
}

// deque is a ring buffer of entries that allocates only to grow.
type deque struct {
	buf      []entry // len is zero or a power of two
	first, n int
}

func (q *deque) at(i int) *entry { return &q.buf[(q.first+i)&(len(q.buf)-1)] }

func (q *deque) grow() {
	if q.n < len(q.buf) {
		return
	}
	buf := make([]entry, max(8, 2*len(q.buf)))
	for i := range q.n {
		buf[i] = *q.at(i)
	}
	q.buf, q.first = buf, 0
}

func (q *deque) pushBack(e entry) {
	q.grow()
	*q.at(q.n) = e
	q.n++
}

func (q *deque) pushFront(e entry) {
	q.grow()
	q.first = (q.first - 1) & (len(q.buf) - 1)
	q.buf[q.first] = e
	q.n++
}

func (q *deque) popFront() entry {
	e := q.buf[q.first]
	q.buf[q.first] = entry{}
	q.first = (q.first + 1) & (len(q.buf) - 1)
	q.n--
	return e
}

// Package fifo provides Ring, the FIFO ring buffer behind the simulator's
// wait queues: the sim kernel's condition-variable waiters, the executor
// thread pool's backlog, the LLM batcher's queues and the cluster's hedge
// timers.
package fifo

// Ring is a FIFO queue on a ring buffer that allocates only to grow: the
// first push allocates one slot and each growth doubles the buffer. PopFront
// clears the slot it vacates, so the ring keeps no popped value reachable.
// The zero value is an empty ring. Its indices are int32, so a Ring is 32
// bytes and a struct holding one stays in a small size class.
type Ring[T any] struct {
	buf     []T // len is zero or a power of two
	head, n int32
}

// Len returns the number of values in the ring.
func (q *Ring[T]) Len() int { return int(q.n) }

// At returns the i-th value from the front; i must be in [0, Len()).
func (q *Ring[T]) At(i int) T { return q.buf[(int(q.head)+i)&(len(q.buf)-1)] }

// PushBack appends v at the back.
func (q *Ring[T]) PushBack(v T) {
	q.grow()
	q.buf[(q.head+q.n)&int32(len(q.buf)-1)] = v
	q.n++
}

// PushFront puts v at the front.
func (q *Ring[T]) PushFront(v T) {
	q.grow()
	q.head = (q.head - 1) & int32(len(q.buf)-1)
	q.buf[q.head] = v
	q.n++
}

// PopFront removes and returns the front value; the ring must not be empty.
func (q *Ring[T]) PopFront() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & int32(len(q.buf)-1)
	q.n--
	return v
}

// grow makes room for one more value: a full ring is copied, front first,
// into one twice its size.
func (q *Ring[T]) grow() {
	if int(q.n) < len(q.buf) {
		return
	}
	buf := make([]T, max(1, 2*len(q.buf)))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

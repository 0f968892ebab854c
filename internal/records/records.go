// Package records holds append-only record sequences whose records are
// written once: the observability recorders' spans and instants, and the
// scheduling intervals a workload run collects per device.
package records

// BlockLen is the number of records one storage block holds: 1024 spans or
// scheduling intervals fill 56 KiB and 1024 instants 48 KiB, all whole
// pages.
const BlockLen = 1024

// Store is an append-only record sequence whose records never move once
// written. It is an optional head — one exactly sized slice adopted by
// Extend on an empty store, which is how a merged fleet parent holds its
// records — followed by blocks of BlockLen records that Push fills in turn.
// Memory therefore grows one block at a time, and a record is written once.
// The zero value is an empty store.
type Store[T any] struct {
	head   []T
	blocks [][]T
	n      int
}

// Len returns the number of records.
func (s *Store[T]) Len() int { return s.n }

// Push appends v, opening a fresh block when the last one is full.
func (s *Store[T]) Push(v T) {
	k := len(s.blocks) - 1
	if k < 0 || len(s.blocks[k]) == BlockLen {
		s.blocks = append(s.blocks, make([]T, 0, BlockLen))
		k++
	}
	s.blocks[k] = append(s.blocks[k], v)
	s.n++
}

// Extend appends vs. An empty store adopts vs as its head without copying;
// otherwise each record is pushed.
func (s *Store[T]) Extend(vs []T) {
	if s.n == 0 {
		s.head, s.n = vs, len(vs)
		return
	}
	for _, v := range vs {
		s.Push(v)
	}
}

// At returns record i (0-based, i < Len).
func (s *Store[T]) At(i int) *T {
	if i < len(s.head) {
		return &s.head[i]
	}
	i -= len(s.head)
	return &s.blocks[i/BlockLen][i%BlockLen]
}

// Shared returns the records as one slice without copying when they sit in
// a single part, clipped so an append to it cannot reach the store; ok is
// false otherwise, and for an empty store.
func (s *Store[T]) Shared() (vs []T, ok bool) {
	switch {
	case s.n == 0:
		return nil, false
	case len(s.blocks) == 0:
		return s.head[:s.n:s.n], true
	case len(s.head) == 0 && len(s.blocks) == 1:
		return s.blocks[0][:s.n:s.n], true
	}
	return nil, false
}

// AppendTo appends every record, in order, to dst and returns the result.
// Given a dst with room for Len more records it allocates nothing.
func (s *Store[T]) AppendTo(dst []T) []T {
	dst = append(dst, s.head...)
	for _, b := range s.blocks {
		dst = append(dst, b...)
	}
	return dst
}

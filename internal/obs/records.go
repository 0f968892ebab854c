package obs

// blockLen is the number of records one storage block holds: 1024 spans
// fill 56 KiB and 1024 instants 48 KiB, both whole pages.
const blockLen = 1024

// records is an append-only record sequence whose records never move once
// written. It is an optional head — one exactly sized slice adopted by
// extend on an empty store, which is how a merged fleet parent holds its
// records — followed by blocks of blockLen records that push fills in turn.
// Memory therefore grows one block at a time, and a record is written once.
type records[T any] struct {
	head   []T
	blocks [][]T
	n      int
}

// push appends v, opening a fresh block when the last one is full.
func (s *records[T]) push(v T) {
	k := len(s.blocks) - 1
	if k < 0 || len(s.blocks[k]) == blockLen {
		s.blocks = append(s.blocks, make([]T, 0, blockLen))
		k++
	}
	s.blocks[k] = append(s.blocks[k], v)
	s.n++
}

// extend appends vs. An empty store adopts vs as its head without copying;
// otherwise each record is pushed.
func (s *records[T]) extend(vs []T) {
	if s.n == 0 {
		s.head, s.n = vs, len(vs)
		return
	}
	for _, v := range vs {
		s.push(v)
	}
}

// at returns record i (0-based, i < n).
func (s *records[T]) at(i int) *T {
	if i < len(s.head) {
		return &s.head[i]
	}
	i -= len(s.head)
	return &s.blocks[i/blockLen][i%blockLen]
}

// shared returns the records as one slice without copying when they sit in
// a single part, clipped so an append to it cannot reach the store; ok is
// false otherwise, and for an empty store.
func (s *records[T]) shared() (vs []T, ok bool) {
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

// copied returns a fresh slice holding every record in order.
func (s *records[T]) copied() []T {
	out := make([]T, 0, s.n)
	out = append(out, s.head...)
	for _, b := range s.blocks {
		out = append(out, b...)
	}
	return out
}

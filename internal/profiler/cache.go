package profiler

import "sync"

// Key identifies a (model, batch) profile in a Store.
type Key struct {
	Model string
	Batch int
}

// Store is a concurrency-safe profile cache keyed by (model, batch). It
// replaces the bare maps experiments used to share profiling work: once runs
// execute in parallel (workload.RunMany), a plain map is a data race.
//
// Computation is single-flight: concurrent GetOrCompute calls for the same
// key share one computation, so a batch of parallel runs profiles each model
// exactly once.
type Store struct {
	mu sync.Mutex
	m  map[Key]*storeEntry
}

type storeEntry struct {
	ready chan struct{}
	res   *Result
	err   error
}

// NewStore returns an empty profile store.
func NewStore() *Store {
	return &Store{m: make(map[Key]*storeEntry)}
}

// Get returns the completed profile for k, if one exists. In-flight or
// failed computations read as absent.
func (s *Store) Get(k Key) (*Result, bool) {
	s.mu.Lock()
	ent, ok := s.m[k]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	select {
	case <-ent.ready:
	default:
		return nil, false // still computing
	}
	if ent.err != nil || ent.res == nil {
		return nil, false
	}
	return ent.res, true
}

// GetOrCompute returns the profile for k, computing it with f on first use.
// Concurrent callers for the same key share a single computation; its result
// (or error) is cached for all of them.
func (s *Store) GetOrCompute(k Key, f func() (*Result, error)) (*Result, error) {
	s.mu.Lock()
	ent, ok := s.m[k]
	if !ok {
		ent = &storeEntry{ready: make(chan struct{})}
		s.m[k] = ent
		s.mu.Unlock()
		ent.res, ent.err = f()
		close(ent.ready)
		return ent.res, ent.err
	}
	s.mu.Unlock()
	<-ent.ready
	return ent.res, ent.err
}

// Len returns the number of completed, successful entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, ent := range s.m {
		select {
		case <-ent.ready:
			if ent.err == nil && ent.res != nil {
				n++
			}
		default:
		}
	}
	return n
}

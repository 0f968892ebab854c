package profiler

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestStoreGetOrComputeSingleFlight(t *testing.T) {
	s := NewStore()
	var computes int32
	start := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]*Result, 16)
	for i := range results {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			r, err := s.GetOrCompute(Key{Model: "m", Batch: 4}, func() (*Result, error) {
				atomic.AddInt32(&computes, 1)
				return &Result{Model: "m", Batch: 4}, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = r
		}()
	}
	close(start)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("computed %d times, want 1", computes)
	}
	for i, r := range results {
		if r != results[0] {
			t.Fatalf("caller %d got a different instance", i)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestStoreGetServesComputed(t *testing.T) {
	s := NewStore()
	k := Key{Model: "m", Batch: 8}
	if _, ok := s.Get(k); ok {
		t.Fatal("empty store reported a profile")
	}
	want := &Result{Model: "m", Batch: 8}
	if r, err := s.GetOrCompute(k, func() (*Result, error) { return want, nil }); err != nil || r != want {
		t.Fatalf("GetOrCompute = %v, %v", r, err)
	}
	got, ok := s.Get(k)
	if !ok || got != want {
		t.Fatalf("Get = %v, %v; want the stored profile", got, ok)
	}
	// GetOrCompute must serve the stored profile without computing.
	r, err := s.GetOrCompute(k, func() (*Result, error) {
		t.Fatal("recomputed a stored key")
		return nil, nil
	})
	if err != nil || r != want {
		t.Fatalf("GetOrCompute = %v, %v", r, err)
	}
}

func TestStoreErrorCachedAndInvisible(t *testing.T) {
	s := NewStore()
	k := Key{Model: "broken", Batch: 1}
	sentinel := errors.New("boom")
	if _, err := s.GetOrCompute(k, func() (*Result, error) { return nil, sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("failed computation visible via Get")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	// The error is cached: the key is not recomputed.
	if _, err := s.GetOrCompute(k, func() (*Result, error) {
		t.Fatal("recomputed a failed key")
		return nil, nil
	}); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want cached sentinel", err)
	}
}

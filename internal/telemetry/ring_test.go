package telemetry

import "testing"

// checkRing pushes up to 3×cap values made by mk into a ring whose series
// first appeared at tick first, and compares every at(t) against a naive
// slice of the full history: a tick reads back iff it is among the last cap
// pushed. It also checks the ring holds exactly the chunks its kept values
// reach, never more slots than its capacity.
func checkRing[T comparable](t *testing.T, capacity int, mk func(int) T) {
	t.Helper()
	const first = 5
	r := ring[T]{cap: capacity, first: first}
	var hist []T
	for n := 1; n <= 3*capacity; n++ {
		v := mk(n)
		r.push(v)
		hist = append(hist, v)
		if capacity > 64 && n%61 != 0 && n%capacity > 1 {
			continue // the large ring is checked at wrap points and a stride
		}
		for tick := first - 2; tick < first+n+2; tick++ {
			i := tick - first
			wantOK := i >= 0 && i < n && i >= n-capacity
			var want T
			if wantOK {
				want = hist[i]
			}
			got, ok := r.at(tick)
			if ok != wantOK || got != want {
				t.Fatalf("cap %d after %d pushes: at(%d) = %v, %v; want %v, %v", capacity, n, tick, got, ok, want, wantOK)
			}
		}
		slots := 0
		for _, c := range r.chunks {
			slots += len(c)
		}
		c, kept := chunkLen[T](), min(n, capacity)
		if want := min(capacity, (kept+c-1)/c*c); slots != want {
			t.Fatalf("cap %d after %d pushes: %d chunk slots for %d kept values, want %d", capacity, n, slots, kept, want)
		}
	}
}

// TestRingMatchesReference: the chunked ring, for both sample types and
// capacities around their chunk lengths, reads back exactly the last cap
// values of a naive full history.
func TestRingMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 7, 30, 31, 32, 33, 62, 63, 64, 65, 1024} {
		checkRing(t, capacity, func(n int) scalarPoint { return scalarPoint{v: float64(n), touched: n%3 == 0} })
		checkRing(t, capacity, func(n int) histSnap {
			var s histSnap
			s.buckets[n%len(s.buckets)] = uint64(n)
			s.sumNs = int64(n)
			return s
		})
	}
}

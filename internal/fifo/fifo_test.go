package fifo

import (
	"math/rand"
	"testing"
	"unsafe"
)

// Property: on random sequences of PushBack, PushFront and PopFront, the
// ring holds the same values in the same order as a plain slice deque, and
// every slot outside its live range is zero. The sequences must drive the
// ring through wrap-around and growth.
func TestPropertyRingMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	wrapped, maxBuf := 0, 0
	for c := 0; c < 200; c++ {
		var q Ring[*int]
		var ref []*int
		for op := 0; op < 1+rng.Intn(200); op++ {
			switch k := rng.Intn(5); {
			case k < 2:
				v := new(int)
				q.PushBack(v)
				ref = append(ref, v)
			case k < 3:
				v := new(int)
				q.PushFront(v)
				ref = append([]*int{v}, ref...)
			case len(ref) > 0:
				if got := q.PopFront(); got != ref[0] {
					t.Fatalf("case %d op %d: popped %p, want %p", c, op, got, ref[0])
				}
				ref = ref[1:]
			}
			if q.Len() != len(ref) {
				t.Fatalf("case %d op %d: Len %d, want %d", c, op, q.Len(), len(ref))
			}
			live := make(map[int]bool, len(ref))
			for i, v := range ref {
				if q.At(i) != v {
					t.Fatalf("case %d op %d: At(%d) is %p, want %p", c, op, i, q.At(i), v)
				}
				live[(int(q.head)+i)&(len(q.buf)-1)] = true
			}
			for i, v := range q.buf {
				if !live[i] && v != nil {
					t.Fatalf("case %d op %d: slot %d outside the live range holds a value", c, op, i)
				}
			}
			if int(q.head)+q.Len() > len(q.buf) {
				wrapped++
			}
			maxBuf = max(maxBuf, len(q.buf))
		}
	}
	if wrapped < 300 || maxBuf < 32 {
		t.Fatalf("%d ops left the ring wrapped, largest buffer %d: the generator no longer exercises wrap-around and growth", wrapped, maxBuf)
	}
}

// TestRingGrowth: the first push allocates one slot and each growth
// doubles the buffer, whichever end the push is at.
func TestRingGrowth(t *testing.T) {
	var q Ring[int]
	for i := 0; i < 9; i++ {
		if i%2 == 0 {
			q.PushBack(i)
		} else {
			q.PushFront(i)
		}
		want := 1
		for want < i+1 {
			want *= 2
		}
		if len(q.buf) != want {
			t.Fatalf("after %d pushes the buffer holds %d slots, want %d", i+1, len(q.buf), want)
		}
	}
}

// TestRingSize: int32 indices keep a Ring at 32 bytes, so the sim kernel's
// Cond, which holds one, stays 64 bytes.
func TestRingSize(t *testing.T) {
	if n := unsafe.Sizeof(Ring[*int]{}); n != 32 {
		t.Fatalf("Ring is %d bytes, want 32", n)
	}
}

// BenchmarkRingPushPop measures a steady FIFO cycle on a grown ring: one
// PushBack and one PopFront per op. It must report 0 allocs/op.
func BenchmarkRingPushPop(b *testing.B) {
	var q Ring[*int]
	v := new(int)
	for range 8 {
		q.PushBack(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		q.PushBack(q.PopFront())
	}
}

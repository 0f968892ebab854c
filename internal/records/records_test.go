package records_test

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"olympian/internal/core"
	"olympian/internal/records"
	"olympian/internal/sim"
)

// TestQuantaBytesBounded: a device's scheduling intervals are written once
// into blocks that never move and copied once into an exactly sized slice,
// so pushing n records and materializing them allocates at most twice
// their bytes plus one block — not the multiples a doubling slice copies
// through on its way to n.
func TestQuantaBytesBounded(t *testing.T) {
	const n = 100_000
	size := unsafe.Sizeof(core.QuantumRecord{})
	var s records.Store[core.QuantumRecord]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		s.Push(core.QuantumRecord{Client: i % 7, JobID: i, Start: sim.Time(i), End: sim.Time(i + 1)})
	}
	out := s.AppendTo(make([]core.QuantumRecord, 0, s.Len()))
	runtime.ReadMemStats(&after)
	if len(out) != n || cap(out) != n {
		t.Fatalf("materialized %d records (cap %d), want %d exactly", len(out), cap(out), n)
	}
	for i, r := range out {
		if r.JobID != i {
			t.Fatalf("record %d holds JobID %d; order lost", i, r.JobID)
		}
	}
	recBytes := float64(n * size)
	got := float64(after.TotalAlloc - before.TotalAlloc)
	bound := 2*recBytes + float64(records.BlockLen*size)
	t.Logf("pushing and materializing %d quanta (%d B each) allocated %.0f B for %.0f B of records (%.3f×); bound %.0f B",
		n, size, got, recBytes, got/recBytes, bound)
	if got > bound {
		t.Fatalf("allocated %.0f B, over the bound %.0f B", got, bound)
	}
}

// TestStoreParts walks a store through its shapes — empty, an adopted
// head, a head followed by blocks, blocks only — checking At, Shared and
// AppendTo against a plain slice holding the same records.
func TestStoreParts(t *testing.T) {
	var empty records.Store[int]
	if _, ok := empty.Shared(); ok || empty.Len() != 0 || len(empty.AppendTo(nil)) != 0 {
		t.Fatal("empty store is not empty")
	}

	head := []int{-3, -2, -1}
	var s records.Store[int]
	s.Extend(head)
	if s.At(0) != &head[0] {
		t.Error("Extend on an empty store copied its head")
	}
	if vs, ok := s.Shared(); !ok || &vs[0] != &head[0] || cap(vs) != len(head) {
		t.Error("a head-only store is not shared, clipped, as one piece")
	}
	want := slices.Clone(head)
	for i := 0; i < 2*records.BlockLen+5; i++ {
		if i%2 == 0 {
			s.Push(i)
		} else {
			s.Extend([]int{i})
		}
		want = append(want, i)
	}
	if _, ok := s.Shared(); ok {
		t.Error("a head followed by blocks claims to be one piece")
	}
	check := func(name string, s *records.Store[int], want []int) {
		t.Helper()
		if s.Len() != len(want) {
			t.Fatalf("%s: Len %d, want %d", name, s.Len(), len(want))
		}
		for i, v := range want {
			if *s.At(i) != v {
				t.Fatalf("%s: At(%d) = %d, want %d", name, i, *s.At(i), v)
			}
		}
		if got := s.AppendTo([]int{42}); !slices.Equal(got[1:], want) || got[0] != 42 {
			t.Fatalf("%s: AppendTo lost the prefix or the order", name)
		}
	}
	check("head+blocks", &s, want)

	var one records.Store[int]
	for i := 0; i < records.BlockLen; i++ {
		one.Push(i)
	}
	vs, ok := one.Shared()
	if !ok || len(vs) != records.BlockLen || cap(vs) != records.BlockLen || &vs[0] != one.At(0) {
		t.Error("a single full block is not shared, clipped, as one piece")
	}
	check("one block", &one, vs)
	one.Push(records.BlockLen)
	if _, ok := one.Shared(); ok {
		t.Error("two blocks claim to be one piece")
	}
	dst := make([]int, 0, one.Len())
	if allocs := testing.AllocsPerRun(10, func() { one.AppendTo(dst) }); allocs != 0 {
		t.Errorf("AppendTo into a slice with room made %v allocations, want 0", allocs)
	}
}

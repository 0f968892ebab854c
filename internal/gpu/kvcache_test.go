package gpu

import (
	"errors"
	"testing"

	"olympian/internal/sim"
)

func kvTestDevice(t *testing.T, mem int64) *Device {
	t.Helper()
	env := sim.NewEnv(1)
	spec := GTX1080Ti
	spec.MemoryBytes = mem
	return New(env, spec, env.Rand())
}

func TestKVCacheGrowReleaseAccounting(t *testing.T) {
	dev := kvTestDevice(t, 1<<20)
	kc := NewKVCache(dev, 16, 64) // block = 1 KiB

	if err := kc.Grow(1, 10); err != nil { // 1 block
		t.Fatal(err)
	}
	if err := kc.Grow(1, 16); err != nil { // still 1 block
		t.Fatal(err)
	}
	if got := kc.Stats().BlocksInUse; got != 1 {
		t.Fatalf("blocks in use = %d, want 1", got)
	}
	if err := kc.Grow(1, 17); err != nil { // crosses into block 2
		t.Fatal(err)
	}
	if err := kc.Grow(2, 40); err != nil { // 3 blocks
		t.Fatal(err)
	}
	st := kc.Stats()
	if st.BlocksInUse != 5 || st.Seqs != 2 || st.Grown != 5 {
		t.Fatalf("stats = %+v, want 5 blocks / 2 seqs / 5 grown", st)
	}
	if dev.MemoryInUse() != 5*kc.blockBytes {
		t.Fatalf("device memory %d, want %d", dev.MemoryInUse(), 5*kc.blockBytes)
	}
	if kc.seqs[1].tokens != 17 || kc.seqs[2].tokens != 40 {
		t.Fatalf("seq tokens = %d, %d", kc.seqs[1].tokens, kc.seqs[2].tokens)
	}
	// Grow only ensures a size: repeating it for a size already covered, as
	// the LLM decode step does when a preemption restarts its growth pass,
	// changes no stat and no memory.
	for _, g := range []struct{ seq, tokens int }{{1, 17}, {1, 12}, {2, 40}} {
		if err := kc.Grow(g.seq, g.tokens); err != nil {
			t.Fatal(err)
		}
	}
	if got := kc.Stats(); got != st || dev.MemoryInUse() != 5*kc.blockBytes || kc.seqs[1].tokens != 17 {
		t.Fatalf("repeat growth changed the cache: stats %+v (was %+v), memory %d, seq 1 tokens %d",
			got, st, dev.MemoryInUse(), kc.seqs[1].tokens)
	}

	kc.Release(1)
	kc.Release(1) // double release is a no-op
	st = kc.Stats()
	if st.BlocksInUse != 3 || st.Seqs != 1 || st.Released != 2 {
		t.Fatalf("post-release stats = %+v", st)
	}
	kc.Release(2)
	if got := dev.MemoryInUse(); got != 0 {
		t.Fatalf("device memory %d after full release, want 0", got)
	}
	if st := kc.Stats(); st.BlocksInUse != 0 || st.Seqs != 0 {
		t.Fatalf("leaked cache: %+v", st)
	}
}

func TestKVCacheCompetesWithWeights(t *testing.T) {
	dev := kvTestDevice(t, 10<<10) // 10 KiB device
	if err := dev.Alloc(8 << 10); err != nil {
		t.Fatal(err) // resident "weights"
	}
	kc := NewKVCache(dev, 16, 64) // 1 KiB blocks

	if err := kc.Grow(7, 32); err != nil {
		t.Fatalf("2 KiB of cache must fit beside 8 KiB of weights: %v", err)
	}
	if err := kc.Grow(8, 1); err == nil {
		t.Fatalf("device is full; Grow past device memory must fail")
	}
	st := kc.Stats()
	if st.AllocFailures != 1 {
		t.Fatalf("alloc failures = %d, want 1", st.AllocFailures)
	}
	if st.BlocksInUse != 2 {
		t.Fatalf("failed Grow must not leak partial blocks: %+v", st)
	}
	// Freeing the victim's cache makes room again.
	kc.Release(7)
	if err := kc.Grow(8, 1); err != nil {
		t.Fatalf("Grow after release: %v", err)
	}
}

// TestKVExhaustionAllocFree pins the cost of a miss: a KV-starved replica
// fails Grow on most decode steps, so neither Grow nor the device Alloc
// under it may allocate when the reservation does not fit.
func TestKVExhaustionAllocFree(t *testing.T) {
	dev := kvTestDevice(t, 4<<10)
	kc := NewKVCache(dev, 16, 64) // 1 KiB blocks
	if err := kc.Grow(1, 64); err != nil {
		t.Fatal(err) // fills the device
	}
	if err := kc.Grow(2, 1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("Grow on a full device = %v, want ErrOutOfMemory", err)
	}
	if err := dev.Alloc(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("Alloc on a full device = %v, want ErrOutOfMemory", err)
	}
	if a := testing.AllocsPerRun(100, func() { _ = kc.Grow(1, 65) }); a != 0 {
		t.Fatalf("failed Grow allocates %.1f times, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { _ = dev.Alloc(1) }); a != 0 {
		t.Fatalf("failed Alloc allocates %.1f times, want 0", a)
	}
	// AllocsPerRun makes one warm-up call besides its 100 counted runs.
	if st := kc.Stats(); st.AllocFailures != 1+101 || st.Seqs != 1 || st.BlocksInUse != 4 {
		t.Fatalf("stats after failed growth = %+v", st)
	}
}

// TestKVCacheZeroTokenGrowRecordsSeqOnce guards the sequence count: a Grow
// that needs no blocks still records the sequence, once, so its Release
// brings the count back.
func TestKVCacheZeroTokenGrowRecordsSeqOnce(t *testing.T) {
	kc := NewKVCache(kvTestDevice(t, 1<<20), 16, 64)
	for range 2 {
		if err := kc.Grow(7, 0); err != nil {
			t.Fatal(err)
		}
	}
	if st := kc.Stats(); st.Seqs != 1 || st.BlocksInUse != 0 {
		t.Fatalf("after two zero-token Grows: %+v, want 1 seq and no blocks", st)
	}
	kc.Release(7)
	if st := kc.Stats(); st.Seqs != 0 || st.Released != 0 {
		t.Fatalf("after Release: %+v, want 0 seqs", st)
	}
}

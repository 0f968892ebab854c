package overload

import (
	"testing"
	"time"
)

func TestTokenLimiterIdleAlwaysAdmits(t *testing.T) {
	l := NewTokenLimiter(TokenAIMDConfig{Initial: 100, Min: 10, Max: 1000})
	// A lone request larger than the whole limit must still run: the gate
	// must never livelock while nothing else holds capacity.
	if !l.HasCapacity(Batch, 5000) || !l.HasCapacity(Interactive, 5000) {
		t.Fatal("idle limiter refused a lone oversized request")
	}
	l.Acquire(5000)
	if l.HasCapacity(Batch, 1) {
		t.Fatal("saturated limiter admitted more work")
	}
	l.Release(5000)
	if !l.HasCapacity(Batch, 1) || l.inflight != 0 {
		t.Fatalf("inflight %d after release, want 0 with capacity", l.inflight)
	}
}

func TestTokenLimiterClassFractions(t *testing.T) {
	l := NewTokenLimiter(TokenAIMDConfig{Initial: 100, Min: 10, Max: 1000, BatchFrac: 0.8})
	l.Acquire(70)
	// 70 + 20 = 90 exceeds the batch fraction floor(100·0.8) = 80 but fits
	// the full interactive limit.
	if l.HasCapacity(Batch, 20) {
		t.Fatal("batch request admitted into the interactive reserve")
	}
	if !l.HasCapacity(Interactive, 20) {
		t.Fatal("interactive request refused within the full limit")
	}
	// Both classes respect the hard limit.
	if l.HasCapacity(Interactive, 31) {
		t.Fatal("interactive request admitted over the limit")
	}
}

func TestTokenLimiterInterleavedMonotonicity(t *testing.T) {
	// Between congestion events the limit must be non-decreasing, whatever
	// interleaving of Acquire/Release/NoteShed/OnSuccess arrives.
	l := NewTokenLimiter(TokenAIMDConfig{Initial: 1000, Min: 100, Max: 4000, Add: 64, Beta: 0.5, Cooldown: time.Millisecond})
	prev := l.Limit()
	for i := 0; i < 200; i++ {
		cost := 50 + (i%7)*30
		if l.HasCapacity(Class(i%int(NumClasses)), cost) {
			l.Acquire(cost)
		}
		if i%3 == 0 {
			l.Release(cost)
		}
		if i%5 == 0 {
			l.NoteShed()
		}
		if i%2 == 0 {
			l.OnSuccess(cost)
		}
		if got := l.Limit(); got < prev {
			t.Fatalf("step %d: limit fell %v -> %v without a congestion event", i, prev, got)
		} else {
			prev = got
		}
	}
	// A congestion event is the only way down.
	l.OnCongestion(10 * time.Millisecond)
	if got := l.Limit(); got >= prev {
		t.Fatalf("limit %v did not fall below %v on congestion", got, prev)
	}
}

func TestTokenLimiterShedsNeverDecrease(t *testing.T) {
	l := NewTokenLimiter(TokenAIMDConfig{Initial: 1000, Min: 100, Max: 4000, Beta: 0.5})
	for i := 0; i < 50; i++ {
		l.NoteShed()
	}
	if got := l.Limit(); got != 1000 {
		t.Fatalf("limit %v after self-sheds, want unchanged 1000", got)
	}
	if l.sheds != 50 || l.decreases != 0 {
		t.Fatalf("sheds=%d decreases=%d, want 50/0", l.sheds, l.decreases)
	}
}

func TestTokenLimiterCooldownCoalesces(t *testing.T) {
	l := NewTokenLimiter(TokenAIMDConfig{Initial: 1600, Min: 100, Max: 4000, Beta: 0.5, Cooldown: 5 * time.Millisecond})
	// A burst of KV-pressure events at one instant cuts once.
	for i := 0; i < 10; i++ {
		l.OnCongestion(time.Millisecond)
	}
	if got := l.Limit(); got != 800 {
		t.Fatalf("limit after burst %v, want one halving to 800", got)
	}
	if l.decreases != 1 {
		t.Fatalf("decreases %d, want 1", l.decreases)
	}
	l.OnCongestion(7 * time.Millisecond)
	if got := l.Limit(); got != 400 {
		t.Fatalf("limit after cooldown expiry %v, want 400", got)
	}
}

func TestTokenLimiterFloorAndCeiling(t *testing.T) {
	l := NewTokenLimiter(TokenAIMDConfig{Initial: 512, Min: 128, Max: 1024, Add: 64, Beta: 0.1, Cooldown: time.Microsecond})
	for i := 0; i < 30; i++ {
		l.OnCongestion(time.Duration(i) * time.Millisecond)
	}
	if got := l.Limit(); got != 128 {
		t.Fatalf("limit %v, want pinned at floor 128", got)
	}
	for i := 0; i < 100000; i++ {
		l.OnSuccess(256)
	}
	if got := l.Limit(); got != 1024 {
		t.Fatalf("limit %v, want pinned at ceiling 1024", got)
	}
	// Zero-cost successes are no-ops.
	before := l.Limit()
	l.OnSuccess(0)
	l.OnSuccess(-5)
	if l.Limit() != before {
		t.Fatalf("zero-cost success moved the limit %v -> %v", before, l.Limit())
	}
}

func TestTokenLimiterReleaseClamps(t *testing.T) {
	l := NewTokenLimiter(TokenAIMDConfig{Initial: 100})
	l.Acquire(40)
	l.Release(100)
	if l.inflight != 0 {
		t.Fatalf("inflight %d, want clamped at 0", l.inflight)
	}
	l.Acquire(-10)
	if l.inflight != 0 || l.admitted != 2 {
		t.Fatalf("inflight=%d admitted=%d, want 0/2", l.inflight, l.admitted)
	}
}

func TestTokenAIMDConfigValidate(t *testing.T) {
	bad := []TokenAIMDConfig{
		{Initial: -1},
		{Min: -2},
		{Add: -1},
		{Beta: 1.5},
		{Beta: -0.1},
		{Min: 4096, Max: 512},
		{Cooldown: -time.Second},
		{BatchFrac: -0.1},
		{BatchFrac: 1.5},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %+v validated, want error", cfg)
		}
	}
	if err := (TokenAIMDConfig{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if err := (TokenAIMDConfig{Initial: 4096, Min: 512, Max: 65536, Add: 64, Beta: 0.7, BatchFrac: 0.8}).Validate(); err != nil {
		t.Fatalf("sane config rejected: %v", err)
	}
}

package overload

import (
	"math"
	"testing"
	"time"
)

func TestLimiterAIMDShape(t *testing.T) {
	l := NewLimiter(AIMDConfig{Initial: 10, Min: 1, Max: 20, Add: 1, Beta: 0.5, Cooldown: time.Millisecond})
	if got := l.Limit(); got != 10 {
		t.Fatalf("initial limit %v, want 10", got)
	}
	// Additive increase: one limit's worth of successes grows the limit by
	// ~Add.
	for i := 0; i < 10; i++ {
		l.OnSuccess()
	}
	if got := l.Limit(); got < 10.9 || got > 11.1 {
		t.Fatalf("limit after 10 successes %v, want ~11", got)
	}
	// Multiplicative decrease.
	l.OnCongestion(10 * time.Millisecond)
	if got := l.Limit(); math.Abs(got-11.0/2*1.0) > 0.6 {
		t.Fatalf("limit after decrease %v, want ~halved", got)
	}
	if l.Decreases() != 1 {
		t.Fatalf("decreases %d, want 1", l.Decreases())
	}
}

func TestLimiterCongestionCooldownCoalesces(t *testing.T) {
	l := NewLimiter(AIMDConfig{Initial: 16, Beta: 0.5, Cooldown: 5 * time.Millisecond})
	// A burst of sheds at one instant must cut the limit once, not 10x.
	for i := 0; i < 10; i++ {
		l.OnCongestion(time.Millisecond)
	}
	if got := l.Limit(); got != 8 {
		t.Fatalf("limit after burst %v, want one halving to 8", got)
	}
	if l.Sheds() != 10 || l.Decreases() != 1 {
		t.Fatalf("sheds=%d decreases=%d, want 10/1", l.Sheds(), l.Decreases())
	}
	// Past the cooldown the next signal cuts again.
	l.OnCongestion(7 * time.Millisecond)
	if got := l.Limit(); got != 4 {
		t.Fatalf("limit after cooldown expiry %v, want 4", got)
	}
}

func TestLimiterFloorAndCeiling(t *testing.T) {
	l := NewLimiter(AIMDConfig{Initial: 2, Min: 1, Max: 3, Beta: 0.1, Cooldown: time.Microsecond})
	for i := 0; i < 20; i++ {
		l.OnCongestion(time.Duration(i) * time.Millisecond)
	}
	if got := l.Limit(); got != 1 {
		t.Fatalf("limit %v, want pinned at floor 1", got)
	}
	for i := 0; i < 10000; i++ {
		l.OnSuccess()
	}
	if got := l.Limit(); got != 3 {
		t.Fatalf("limit %v, want pinned at ceiling 3", got)
	}
}

func TestLimiterAccounting(t *testing.T) {
	l := NewLimiter(AIMDConfig{Initial: 2})
	if !l.HasCapacityFrac(1) {
		t.Fatal("fresh limiter should have capacity")
	}
	l.Acquire()
	l.Acquire()
	if l.HasCapacityFrac(1) {
		t.Fatal("limit 2 with 2 in flight should be full")
	}
	l.Release()
	if !l.HasCapacityFrac(1) || l.inflight != 1 {
		t.Fatalf("inflight %d after release, want 1 with capacity", l.inflight)
	}
	// Release never goes negative.
	l.Release()
	l.Release()
	if l.inflight != 0 {
		t.Fatalf("inflight %d, want 0", l.inflight)
	}
	if l.Admitted() != 2 {
		t.Fatalf("admitted %d, want 2", l.Admitted())
	}
}

func TestAIMDConfigValidate(t *testing.T) {
	bad := []AIMDConfig{
		{Initial: -1},
		{Min: -2},
		{Beta: 1.5},
		{Beta: -0.1},
		{Min: 10, Max: 5},
		{Cooldown: -time.Second},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %+v validated, want error", cfg)
		}
	}
	if err := (AIMDConfig{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if err := (AIMDConfig{Initial: 4, Min: 1, Max: 64, Add: 2, Beta: 0.5}).Validate(); err != nil {
		t.Fatalf("sane config rejected: %v", err)
	}
}

func TestRetryBudgetDrainsAndRefunds(t *testing.T) {
	b := NewRetryBudget(2, 0.5)
	if !b.Allow() || !b.Allow() {
		t.Fatal("full budget denied a retry")
	}
	if b.Allow() {
		t.Fatal("empty budget allowed a retry")
	}
	if b.denied != 1 {
		t.Fatalf("denied %d, want 1", b.denied)
	}
	// Two successes refund one token.
	b.OnSuccess()
	b.OnSuccess()
	if !b.Allow() {
		t.Fatal("refunded budget denied a retry")
	}
	// Refunds cap at the pool size.
	for i := 0; i < 100; i++ {
		b.OnSuccess()
	}
	if b.tokens != 2 {
		t.Fatalf("tokens %v, want capped at 2", b.tokens)
	}
}

func TestRetryBudgetDisabled(t *testing.T) {
	b := NewRetryBudget(0, 1)
	if b.Allow() {
		t.Fatal("zero budget allowed a retry")
	}
	b = NewRetryBudget(-5, 1)
	if b.Allow() {
		t.Fatal("negative budget allowed a retry")
	}
}

func TestBackoffGrowthAndJitter(t *testing.T) {
	base := time.Millisecond
	if got := Backoff(base, 0, 0, 0); got != base {
		t.Fatalf("attempt 0 backoff %v, want %v", got, base)
	}
	if got := Backoff(base, 3, 0, 0); got != 8*base {
		t.Fatalf("attempt 3 backoff %v, want %v", got, 8*base)
	}
	// r=0.5 centers the jitter: no change.
	if got := Backoff(base, 1, 0.5, 0.5); got != 2*base {
		t.Fatalf("centered jitter backoff %v, want %v", got, 2*base)
	}
	// r=0 shrinks, r→1 grows, both within the jitter fraction.
	lo := Backoff(base, 1, 0.5, 0)
	hi := Backoff(base, 1, 0.5, 0.999)
	if lo >= 2*base || hi <= 2*base {
		t.Fatalf("jitter window [%v, %v] does not bracket %v", lo, hi, 2*base)
	}
	if lo < time.Millisecond || hi > 3*time.Millisecond {
		t.Fatalf("jitter window [%v, %v] exceeds ±50%%", lo, hi)
	}
	// The shift cap keeps huge attempts finite and positive.
	if got := Backoff(base, 1000, 0.5, 0.9); got <= 0 {
		t.Fatalf("capped backoff %v, want positive", got)
	}
	// A zero base still backs off.
	if got := Backoff(0, 0, 0, 0); got != time.Millisecond {
		t.Fatalf("default base backoff %v, want 1ms", got)
	}
}

func TestClassNamesAndValidity(t *testing.T) {
	if Batch.String() != "batch" || Interactive.String() != "interactive" {
		t.Fatalf("class names %q/%q", Batch.String(), Interactive.String())
	}
	if !Batch.Valid() || !Interactive.Valid() {
		t.Fatal("defined classes must be valid")
	}
	if Class(-1).Valid() || NumClasses.Valid() {
		t.Fatal("out-of-range classes must be invalid")
	}
	if Interactive <= Batch {
		t.Fatal("interactive must outrank batch")
	}
}

package overload

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestLimiterAIMDShape(t *testing.T) {
	l := NewLimiter(AIMDConfig{Initial: 10, Min: 1, Max: 20, Add: 1, Beta: 0.5, Cooldown: time.Millisecond}, Requests)
	if got := l.Limit(); got != 10 {
		t.Fatalf("initial limit %v, want 10", got)
	}
	// Additive increase: one limit's worth of successes grows the limit by
	// ~Add.
	for i := 0; i < 10; i++ {
		l.OnSuccess(1)
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

func TestLimiterUnitDefaults(t *testing.T) {
	for _, tc := range []struct {
		unit Unit
		want AIMDConfig
	}{
		{Requests, AIMDConfig{Initial: 8, Min: 1, Max: 256, Add: 1, Beta: 0.7, Cooldown: 5 * time.Millisecond}},
		{Tokens, AIMDConfig{Initial: 4096, Min: 512, Max: 262144, Add: 64, Beta: 0.7, Cooldown: 5 * time.Millisecond}},
	} {
		l := NewLimiter(AIMDConfig{}, tc.unit)
		if l.cfg != tc.want || l.Limit() != tc.want.Initial {
			t.Errorf("unit %d: config %+v at limit %v, want %+v", tc.unit, l.cfg, l.Limit(), tc.want)
		}
		// An explicit field wins over the unit's default.
		if got := NewLimiter(AIMDConfig{Add: 3}, tc.unit).cfg.Add; got != 3 {
			t.Errorf("unit %d: explicit Add became %v", tc.unit, got)
		}
	}
}

func TestLimiterIdleAlwaysAdmits(t *testing.T) {
	for _, tc := range []struct {
		name string
		unit Unit
		cfg  AIMDConfig
		cost int
	}{
		// At limit 1 the batch share floors to zero slots.
		{"requests/limit-1", Requests, AIMDConfig{Initial: 1, Min: 1}, 1},
		// A lone request larger than the whole limit.
		{"tokens/oversized", Tokens, AIMDConfig{Initial: 100, Min: 10, Max: 1000}, 5000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLimiter(tc.cfg, tc.unit)
			// The gate must never shut work out while nothing else holds
			// capacity: nothing would complete to grow the limit back.
			if !l.HasCapacity(Batch, tc.cost) || !l.HasCapacity(Interactive, tc.cost) {
				t.Fatal("idle limiter refused a lone request")
			}
			l.Acquire(tc.cost)
			if l.HasCapacity(Batch, 1) || l.HasCapacity(Interactive, 1) {
				t.Fatal("saturated limiter admitted more work")
			}
			l.Release(tc.cost)
			if !l.HasCapacity(Batch, tc.cost) || l.inflight != 0 {
				t.Fatalf("inflight %d after release, want 0 with capacity", l.inflight)
			}
		})
	}
}

func TestLimiterClassFractions(t *testing.T) {
	// Batch sees floor(limit·0.8), interactive the whole limit: at limit 10
	// that is 8 and 10 requests, at limit 100 it is 80 and 100 tokens.
	for _, tc := range []struct {
		name             string
		unit             Unit
		initial          float64
		held, cost       int
		batchOK, interOK bool
	}{
		{"requests/below-batch-share", Requests, 10, 7, 1, true, true},
		{"requests/interactive-reserve", Requests, 10, 8, 1, false, true},
		{"requests/full", Requests, 10, 10, 1, false, false},
		{"tokens/below-batch-share", Tokens, 100, 60, 20, true, true},
		{"tokens/interactive-reserve", Tokens, 100, 70, 20, false, true},
		{"tokens/over-limit", Tokens, 100, 70, 31, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLimiter(AIMDConfig{Initial: tc.initial, Min: 1, Max: 1000}, tc.unit)
			for i := 0; i < tc.held/tc.cost; i++ {
				l.Acquire(tc.cost)
			}
			l.Acquire(tc.held % tc.cost)
			if got := l.HasCapacity(Batch, tc.cost); got != tc.batchOK {
				t.Errorf("batch admit %v, want %v", got, tc.batchOK)
			}
			if got := l.HasCapacity(Interactive, tc.cost); got != tc.interOK {
				t.Errorf("interactive admit %v, want %v", got, tc.interOK)
			}
		})
	}
}

func TestLimiterInterleavedMonotonicity(t *testing.T) {
	// Between congestion events the limit must be non-decreasing, whatever
	// interleaving of Acquire/Release/NoteShed/OnSuccess arrives.
	for _, tc := range []struct {
		name string
		unit Unit
		cfg  AIMDConfig
		cost func(i int) int
	}{
		{"requests", Requests, AIMDConfig{Initial: 10, Min: 1, Max: 40, Add: 1, Beta: 0.5, Cooldown: time.Millisecond},
			func(int) int { return 1 }},
		{"tokens", Tokens, AIMDConfig{Initial: 1000, Min: 100, Max: 4000, Add: 64, Beta: 0.5, Cooldown: time.Millisecond},
			func(i int) int { return 50 + (i%7)*30 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLimiter(tc.cfg, tc.unit)
			prev := l.Limit()
			for i := 0; i < 200; i++ {
				cost := tc.cost(i)
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
		})
	}
}

func TestLimiterShedsNeverDecrease(t *testing.T) {
	for _, tc := range []struct {
		name string
		unit Unit
		cfg  AIMDConfig
	}{
		{"requests", Requests, AIMDConfig{Initial: 16, Beta: 0.5}},
		{"tokens", Tokens, AIMDConfig{Initial: 1000, Min: 100, Max: 4000, Beta: 0.5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLimiter(tc.cfg, tc.unit)
			for i := 0; i < 50; i++ {
				l.NoteShed()
			}
			if got := l.Limit(); got != tc.cfg.Initial {
				t.Fatalf("limit %v after self-sheds, want unchanged %v", got, tc.cfg.Initial)
			}
			if l.Sheds() != 50 || l.Decreases() != 0 {
				t.Fatalf("sheds=%d decreases=%d, want 50/0", l.Sheds(), l.Decreases())
			}
		})
	}
}

func TestLimiterCongestionCooldownCoalesces(t *testing.T) {
	checkCooldownCoalesces(t, Requests, 16)
}

// The token-denominated rows below run the same limiter charged in
// predicted tokens, the unit the LLM server uses.

func TestTokenLimiterCooldownCoalesces(t *testing.T) {
	checkCooldownCoalesces(t, Tokens, 1600)
}

func checkCooldownCoalesces(t *testing.T, unit Unit, initial float64) {
	t.Helper()
	l := NewLimiter(AIMDConfig{Initial: initial, Min: 1, Beta: 0.5, Cooldown: 5 * time.Millisecond}, unit)
	// A burst of congestion signals at one instant must cut the limit once,
	// not 10x.
	for i := 0; i < 10; i++ {
		if cut := l.OnCongestion(time.Millisecond); cut != (i == 0) {
			t.Fatalf("signal %d reported cut=%v", i, cut)
		}
	}
	if got := l.Limit(); got != initial/2 {
		t.Fatalf("limit after burst %v, want one halving to %v", got, initial/2)
	}
	if l.Sheds() != 10 || l.Decreases() != 1 {
		t.Fatalf("sheds=%d decreases=%d, want 10/1", l.Sheds(), l.Decreases())
	}
	// Past the cooldown the next signal cuts again.
	if !l.OnCongestion(7 * time.Millisecond) {
		t.Fatal("signal past the cooldown reported no cut")
	}
	if got := l.Limit(); got != initial/4 {
		t.Fatalf("limit after cooldown expiry %v, want %v", got, initial/4)
	}
}

func TestLimiterFloorAndCeiling(t *testing.T) {
	checkFloorAndCeiling(t, Requests, AIMDConfig{Initial: 2, Min: 1, Max: 3, Beta: 0.1, Cooldown: time.Microsecond}, 1, 10000)
}

func TestTokenLimiterFloorAndCeiling(t *testing.T) {
	checkFloorAndCeiling(t, Tokens, AIMDConfig{Initial: 512, Min: 128, Max: 1024, Add: 64, Beta: 0.1, Cooldown: time.Microsecond}, 256, 100000)
}

func checkFloorAndCeiling(t *testing.T, unit Unit, cfg AIMDConfig, cost, ups int) {
	t.Helper()
	l := NewLimiter(cfg, unit)
	for i := 0; i < 30; i++ {
		l.OnCongestion(time.Duration(i) * time.Millisecond)
	}
	if got := l.Limit(); got != cfg.Min {
		t.Fatalf("limit %v, want pinned at floor %v", got, cfg.Min)
	}
	for i := 0; i < ups; i++ {
		l.OnSuccess(cost)
	}
	if got := l.Limit(); got != cfg.Max {
		t.Fatalf("limit %v, want pinned at ceiling %v", got, cfg.Max)
	}
	// Zero-cost successes are no-ops.
	l.OnCongestion(time.Second)
	before := l.Limit()
	l.OnSuccess(0)
	l.OnSuccess(-5)
	if l.Limit() != before {
		t.Fatalf("zero-cost success moved the limit %v -> %v", before, l.Limit())
	}
}

func TestLimiterAccounting(t *testing.T) {
	checkAccounting(t, Requests, []int{1, 1}, []int{1, 1, 1})
}

func TestTokenLimiterReleaseClamps(t *testing.T) {
	checkAccounting(t, Tokens, []int{40, -10}, []int{100})
}

func checkAccounting(t *testing.T, unit Unit, acquire, release []int) {
	t.Helper()
	l := NewLimiter(AIMDConfig{Initial: 100}, unit)
	for _, c := range acquire {
		l.Acquire(c)
	}
	for _, c := range release {
		l.Release(c)
	}
	if l.inflight != 0 || l.Admitted() != len(acquire) {
		t.Fatalf("inflight=%d admitted=%d, want 0/%d", l.inflight, l.Admitted(), len(acquire))
	}
	// A negative cost never raises the in-flight count.
	l.Acquire(-10)
	if l.inflight != 0 {
		t.Fatalf("inflight %d after a negative-cost acquire, want 0", l.inflight)
	}
}

func TestAIMDConfigValidate(t *testing.T) {
	checkValidate(t,
		[]AIMDConfig{
			{Initial: -1},
			{Min: -2},
			{Add: -1},
			{Beta: 1.5},
			{Beta: -0.1},
			{Min: 10, Max: 5},
			{Cooldown: -time.Second},
		},
		[]AIMDConfig{{}, {Initial: 4, Min: 1, Max: 64, Add: 2, Beta: 0.5}})
}

func TestTokenAIMDConfigValidate(t *testing.T) {
	checkValidate(t,
		[]AIMDConfig{{Add: -1}, {Min: 4096, Max: 512}},
		[]AIMDConfig{{Initial: 4096, Min: 512, Max: 65536, Add: 64, Beta: 0.7}})
}

func checkValidate(t *testing.T, bad, good []AIMDConfig) {
	t.Helper()
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %+v validated, want error", cfg)
		}
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("config %+v rejected: %v", cfg, err)
		}
	}
}

// refLimiter is the request-denominated AIMD limiter as it stood before
// the two limiters merged, kept as the reference the merged limiter must
// match at cost 1. Its one divergence is the defect the merge fixed: it
// refuses when idle if floor(limit·frac) is 0.
type refLimiter struct {
	cfg                        AIMDConfig
	limit                      float64
	inflight                   int
	nextDecrease               time.Duration
	admitted, sheds, decreases int
}

func newRefLimiter(cfg AIMDConfig) *refLimiter {
	if cfg.Initial <= 0 {
		cfg.Initial = 8
	}
	if cfg.Min <= 0 {
		cfg.Min = 1
	}
	if cfg.Max <= 0 {
		cfg.Max = 256
	}
	if cfg.Add <= 0 {
		cfg.Add = 1
	}
	if cfg.Beta <= 0 || cfg.Beta >= 1 {
		cfg.Beta = 0.7
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Millisecond
	}
	return &refLimiter{cfg: cfg, limit: cfg.Initial}
}

func (l *refLimiter) hasCapacityFrac(frac float64) bool {
	return float64(l.inflight) < math.Floor(l.limit*frac)
}

func (l *refLimiter) acquire() {
	l.inflight++
	l.admitted++
}

func (l *refLimiter) release() {
	if l.inflight > 0 {
		l.inflight--
	}
}

func (l *refLimiter) onSuccess() {
	l.limit = math.Min(l.limit+l.cfg.Add/math.Max(l.limit, 1), l.cfg.Max)
}

func (l *refLimiter) noteShed() { l.sheds++ }

func (l *refLimiter) onCongestion(now time.Duration) {
	l.sheds++
	if now < l.nextDecrease {
		return
	}
	l.nextDecrease = now + l.cfg.Cooldown
	l.limit = math.Max(l.limit*l.cfg.Beta, l.cfg.Min)
	l.decreases++
}

// FuzzLimiterMatchesReference drives the merged limiter and the reference
// request limiter through the same op sequence at cost 1 and holds every
// piece of state equal after each op. seed draws the config; each op byte
// picks the operation, and its high bits a class or a time step.
func FuzzLimiterMatchesReference(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{1, 1, 1, 0, 6, 3, 3, 4, 10, 0, 2, 2, 2, 0})
	f.Add(int64(3), bytes.Repeat([]byte{1, 0, 6, 4, 3, 2, 5, 64}, 30))
	f.Add(int64(4), bytes.Repeat([]byte{4, 250, 0, 6}, 20))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		cfg := AIMDConfig{
			Initial:  float64(rng.Intn(40)),
			Min:      float64(rng.Intn(6)),
			Max:      float64(rng.Intn(300)),
			Add:      float64(rng.Intn(4)),
			Beta:     rng.Float64(),
			Cooldown: time.Duration(rng.Intn(10)) * time.Millisecond,
		}
		if cfg.Validate() != nil {
			return
		}
		l, ref := NewLimiter(cfg, Requests), newRefLimiter(cfg)
		var now time.Duration
		for i, b := range ops {
			arg := int(b) / 6
			switch b % 6 {
			case 0:
				class := Class(arg % int(NumClasses))
				frac := 1.0
				if class < Interactive {
					frac = batchFrac
				}
				got, want := l.HasCapacity(class, 1), ref.hasCapacityFrac(frac)
				if got != want && !(ref.inflight == 0 && got) {
					t.Fatalf("op %d: %v admit %v, reference %v (inflight %d, limit %v)",
						i, class, got, want, ref.inflight, ref.limit)
				}
			case 1:
				l.Acquire(1)
				ref.acquire()
			case 2:
				l.Release(1)
				ref.release()
			case 3:
				l.OnSuccess(1)
				ref.onSuccess()
			case 4:
				now += time.Duration(arg) * time.Millisecond
				before := ref.decreases
				ref.onCongestion(now)
				if cut := l.OnCongestion(now); cut != (ref.decreases > before) {
					t.Fatalf("op %d: OnCongestion reported cut=%v, reference cut=%v", i, cut, !cut)
				}
			case 5:
				l.NoteShed()
				ref.noteShed()
			}
			if l.limit != ref.limit || l.inflight != ref.inflight || l.admitted != ref.admitted ||
				l.sheds != ref.sheds || l.decreases != ref.decreases || l.nextDecrease != ref.nextDecrease {
				t.Fatalf("op %d (%d): state limit=%v inflight=%d admitted=%d sheds=%d decreases=%d, reference %+v",
					i, b, l.limit, l.inflight, l.admitted, l.sheds, l.decreases, *ref)
			}
		}
	})
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

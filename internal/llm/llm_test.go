package llm

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"olympian/internal/overload"
	"olympian/internal/sim"
)

func TestRequestTokenAccounting(t *testing.T) {
	env := sim.NewEnv(1)
	r := NewRequest(env, 7, "llm-tiny", overload.Interactive, 100, 10, 3)
	if r.TokensOut != 3 || r.Have != 3 || r.EmittedHere() != 0 {
		t.Fatalf("carried tokens wrong: %+v", r)
	}
	if r.KVTokens() != 103 || r.Remaining() != 7 {
		t.Fatalf("kv=%d remaining=%d", r.KVTokens(), r.Remaining())
	}
	r.PrefillStartAt = sim.Time(2e6)
	r.ArriveAt = sim.Time(1e6)
	if r.QueueDelay() != time.Millisecond {
		t.Fatalf("queue delay = %v", r.QueueDelay())
	}

	r.FirstTokenAt = sim.Time(3e6)
	r.TokensOut = 5
	r.LastTokenAt = sim.Time(7e6)
	if r.TTFT() != 2*time.Millisecond {
		t.Fatalf("ttft = %v", r.TTFT())
	}
	// 4 ms over 4 inter-token gaps (5 tokens).
	if r.TPOT() != time.Millisecond {
		t.Fatalf("tpot = %v", r.TPOT())
	}

	r.Abort(errors.New("crash"), sim.Time(8e6))
	if !r.Partial() || r.EmittedHere() != 2 {
		t.Fatalf("mid-decode failure must be partial: %+v", r)
	}
	if r.Latency() != 0 {
		t.Fatalf("failed request must not report completion latency")
	}
	if !r.Done().Triggered() {
		t.Fatalf("terminal state must trigger done")
	}
	// Terminal state is sticky.
	r.Complete(sim.Time(9e6))
	if r.Err == nil || r.FinishAt != sim.Time(8e6) {
		t.Fatalf("double-terminal must be a no-op: %+v", r)
	}
}

func TestRequestClampsDimensions(t *testing.T) {
	env := sim.NewEnv(1)
	r := NewRequest(env, 0, "m", overload.Batch, 0, 0, 9)
	if r.PromptTokens != 1 || r.OutputTokens != 1 || r.Have != 1 {
		t.Fatalf("clamp failed: %+v", r)
	}
}

func newReq(env *sim.Env, id int) *Request {
	return NewRequest(env, id, "m", overload.Interactive, 8, 4, 0)
}

func TestBatcherTokenBoundaryMembership(t *testing.T) {
	env := sim.NewEnv(1)
	b := NewBatcher(2, 0)
	r0, r1, r2 := newReq(env, 0), newReq(env, 1), newReq(env, 2)
	for _, r := range []*Request{r0, r1, r2} {
		b.Enqueue(r)
	}
	if got := b.NextPrefill(); got != r0 {
		t.Fatalf("FCFS prefill order broken: %v", got)
	}
	b.Admit(r0)
	if joined := b.PromoteOne(); joined != r0 {
		t.Fatalf("promote = %v", joined)
	}
	if extra := b.PromoteOne(); extra != nil {
		t.Fatalf("promote joined more than the one ready sequence: %v", extra)
	}
	// One slot left: r1 may prefill, but r2 must wait.
	if got := b.NextPrefill(); got != r1 {
		t.Fatalf("second prefill = %v", got)
	}
	b.Admit(r1)
	b.PromoteOne()
	if b.NextPrefill() != nil {
		t.Fatalf("full batch must block further prefills")
	}
	if len(b.Running()) != 2 || b.KVTokens() != 16 {
		t.Fatalf("running=%d kv=%d", len(b.Running()), b.KVTokens())
	}
	// Leaving at a token boundary frees the slot for the queued request.
	b.Leave(r0)
	if got := b.NextPrefill(); got != r2 {
		t.Fatalf("slot not freed for r2: %v", got)
	}
}

func TestBatcherVictimIsNewestAndNeverLast(t *testing.T) {
	env := sim.NewEnv(1)
	b := NewBatcher(4, 4)
	r0, r1, r2 := newReq(env, 0), newReq(env, 1), newReq(env, 2)
	for _, r := range []*Request{r0, r1, r2} {
		b.Enqueue(r)
		b.NextPrefill()
		b.Admit(r)
	}
	for b.PromoteOne() != nil {
	}
	if v := b.Victim(); v != r2 {
		t.Fatalf("victim = %v, want newest r2", v)
	}
	if v := b.Victim(); v != r1 {
		t.Fatalf("victim = %v, want r1", v)
	}
	if v := b.Victim(); v != nil {
		t.Fatalf("last running sequence must never self-preempt, got %v", v)
	}
	q, rd, run := b.TakeAll()
	if len(q) != 0 || len(rd) != 0 || len(run) != 1 || run[0] != r0 {
		t.Fatalf("TakeAll = %v %v %v", q, rd, run)
	}
	if b.HasWork() {
		t.Fatalf("TakeAll must empty the batcher")
	}
}

func TestBatcherMaxBatchTokensBoundsSlots(t *testing.T) {
	if got := NewBatcher(8, 3).Slots(); got != 3 {
		t.Fatalf("slots = %d, want token budget 3", got)
	}
	if got := NewBatcher(0, 0).Slots(); got != 8 {
		t.Fatalf("default slots = %d", got)
	}
}

func TestLinkSerializesTransfers(t *testing.T) {
	l := NewLink(100*time.Microsecond, 1e9) // 1 GB/s
	// 1 MB at 1 GB/s = 1 ms, plus 100 µs latency.
	d1 := l.Transfer(0, 1<<20)
	want := sim.Time(100*time.Microsecond) + sim.Time(float64(1<<20)/1e9*1e9)
	if d1 != want {
		t.Fatalf("first transfer done at %v, want %v", d1, want)
	}
	// Second transfer issued mid-flight queues behind the first.
	d2 := l.Transfer(sim.Time(50*time.Microsecond), 0)
	if d2 != d1.Add(100*time.Microsecond) {
		t.Fatalf("queued transfer done at %v", d2)
	}
	if l.Transfers() != 2 || l.Bytes() != 1<<20 {
		t.Fatalf("counters: %d transfers, %d bytes", l.Transfers(), l.Bytes())
	}
}

func TestLengthDistDeterministicAndBounded(t *testing.T) {
	d := LengthDist{Name: "chat", PromptMin: 32, PromptMax: 256, OutputMin: 16, OutputMax: 128}
	a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		p1, o1 := d.Sample(a)
		p2, o2 := d.Sample(b)
		if p1 != p2 || o1 != o2 {
			t.Fatalf("same-seed draws diverged at %d", i)
		}
		if p1 < 32 || p1 > 256 || o1 < 16 || o1 > 128 {
			t.Fatalf("draw out of range: %d/%d", p1, o1)
		}
	}
	if m := d.MeanTokens(); m != (32+256)/2.0+(16+128)/2.0 {
		t.Fatalf("mean tokens = %v", m)
	}
	// Degenerate ranges clamp instead of panicking.
	z := LengthDist{}
	p, o := z.Sample(a)
	if p != 1 || o != 1 {
		t.Fatalf("zero dist must clamp to 1/1, got %d/%d", p, o)
	}
}

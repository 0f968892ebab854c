package llm

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"olympian/internal/overload"
	"olympian/internal/sim"
)

func TestRequestTokenAccounting(t *testing.T) {
	env := sim.NewEnv(1)
	r := newRequest(env, 7, "llm-tiny", overload.Interactive, 100, 10, 3)
	if r.TokensOut != 3 || r.Have != 3 || r.EmittedHere() != 0 {
		t.Fatalf("carried tokens wrong: %+v", r)
	}
	if r.KVTokens() != 103 || r.OutputTokens-r.TokensOut != 7 {
		t.Fatalf("kv=%d remaining=%d", r.KVTokens(), r.OutputTokens-r.TokensOut)
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
	if !r.Finished() || r.Err == nil || r.EmittedHere() != 2 {
		t.Fatalf("mid-decode failure must be partial: %+v", r)
	}
	fired := false
	r.Done().Subscribe(func() { fired = true })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
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
	r := newRequest(env, 0, "m", overload.Batch, 0, 0, 9)
	if r.PromptTokens != 1 || r.OutputTokens != 1 || r.Have != 1 {
		t.Fatalf("clamp failed: %+v", r)
	}
}

// TestInitRequestResets reuses one record after each way a request ends —
// completion, abort, truncation and hand-off — and requires InitRequest to
// return it with every field reset and its Done event armed on the new env.
func TestInitRequestResets(t *testing.T) {
	ends := []struct {
		name string
		end  func(*Request, sim.Time)
	}{
		{"complete", func(r *Request, now sim.Time) { r.Complete(now) }},
		{"abort", func(r *Request, now sim.Time) { r.Abort(errors.New("crash"), now) }},
		{"truncate", func(r *Request, now sim.Time) { r.Truncate(2); r.Complete(now) }},
		{"handoff", func(r *Request, now sim.Time) { r.HandedOff = true; r.Complete(now) }},
	}
	for _, e := range ends {
		t.Run(e.name, func(t *testing.T) {
			old := sim.NewEnv(1)
			var r Request
			InitRequest(&r, old, 3, "m", overload.Batch, 64, 16, 0)
			r.TokensOut, r.Preemptions, r.AdmitCost = 9, 2, 80
			r.PrefillStartAt, r.FirstTokenAt, r.LastTokenAt = sim.Time(1e6), sim.Time(2e6), sim.Time(4e6)
			e.end(&r, sim.Time(5e6))
			if err := old.Run(); err != nil {
				t.Fatal(err)
			}

			env := sim.NewEnv(2)
			InitRequest(&r, env, 4, "n", overload.Interactive, 32, 8, 2)
			want := Request{ID: 4, Model: "n", Class: overload.Interactive, PromptTokens: 32, OutputTokens: 8, Have: 2, TokensOut: 2}
			got := r
			got.done = sim.Event{}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("reused request = %+v, want %+v", got, want)
			}
			fired := false
			r.Done().Subscribe(func() { fired = true })
			r.Complete(env.Now())
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			if !fired || !r.Finished() {
				t.Fatalf("reused request's Done did not fire on the new env (fired=%v finished=%v)", fired, r.Finished())
			}
		})
	}
}

// newRequest initializes a fresh caller-held request.
func newRequest(env *sim.Env, id int, model string, class overload.Class, prompt, output, have int) *Request {
	r := new(Request)
	InitRequest(r, env, id, model, class, prompt, output, have)
	return r
}

func newReq(env *sim.Env, id int) *Request {
	return newRequest(env, id, "m", overload.Interactive, 8, 4, 0)
}

func TestBatcherTokenBoundaryMembership(t *testing.T) {
	env := sim.NewEnv(1)
	b := NewBatcher(2)
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
	b := NewBatcher(4)
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

func TestLinkSerializesTransfers(t *testing.T) {
	l := new(Link)
	// 25 MB at 25 GB/s = 1 ms, plus 200 µs latency.
	d1 := l.Transfer(0, 25e6)
	want := sim.Time(DefaultLinkLatency + time.Millisecond)
	if d1 != want {
		t.Fatalf("first transfer done at %v, want %v", d1, want)
	}
	// Second transfer issued mid-flight queues behind the first.
	d2 := l.Transfer(sim.Time(50*time.Microsecond), 0)
	if d2 != d1.Add(DefaultLinkLatency) {
		t.Fatalf("queued transfer done at %v", d2)
	}
	if l.Bytes() != 25e6 {
		t.Fatalf("carried %d bytes", l.Bytes())
	}
}

func TestLengthDistDeterministicAndBounded(t *testing.T) {
	d := LengthDist{Name: "chat", PromptMin: 32, PromptMax: 256, OutputMin: 16, OutputMax: 128}
	a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	total := 0
	for i := 0; i < 200; i++ {
		p1, o1 := d.Sample(a)
		p2, o2 := d.Sample(b)
		if p1 != p2 || o1 != o2 {
			t.Fatalf("same-seed draws diverged at %d", i)
		}
		if p1 < 32 || p1 > 256 || o1 < 16 || o1 > 128 {
			t.Fatalf("draw out of range: %d/%d", p1, o1)
		}
		total += p1 + o1
	}
	// Uniform draws: the sample mean sits within three standard errors
	// (about 5 tokens each) of the ranges' midpoints.
	if m, want := float64(total)/200, (32+256)/2.0+(16+128)/2.0; math.Abs(m-want) > 15 {
		t.Fatalf("mean tokens = %v, want ≈%v", m, want)
	}
	// Degenerate ranges clamp instead of panicking.
	z := LengthDist{}
	p, o := z.Sample(a)
	if p != 1 || o != 1 {
		t.Fatalf("zero dist must clamp to 1/1, got %d/%d", p, o)
	}
}

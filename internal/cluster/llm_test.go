package cluster

import (
	"testing"
	"time"

	"olympian/internal/faults"
	"olympian/internal/gpu"
	"olympian/internal/model"
	"olympian/internal/serving"
)

// checkLLMClusterConservation asserts the fleet-level conservation laws the
// invariant package formalizes (which cannot be imported here: it imports
// this package).
func checkLLMClusterConservation(t *testing.T, c *LLMCluster, st LLMClusterStats) {
	t.Helper()
	if st.Completed+st.Failed+st.Shed+st.Expired != st.Requests {
		t.Fatalf("request conservation broken: %+v", st)
	}
	if st.TokensEmitted != st.TokensDelivered {
		t.Fatalf("token conservation broken: devices emitted %d, requests delivered %d",
			st.TokensEmitted, st.TokensDelivered)
	}
	devTrunc := 0
	for _, ds := range st.PerDevice {
		devTrunc += ds.TruncatedTokens
	}
	if devTrunc != st.TruncatedTokens {
		t.Fatalf("truncation conservation broken: devices cut %d, requests carry %d",
			devTrunc, st.TruncatedTokens)
	}
	for i, ds := range st.PerDevice {
		if ds.TokensEmitted != ds.EmittedByRequests {
			t.Fatalf("device %d token conservation broken: %+v", i, ds)
		}
		if ds.KV.BlocksInUse != 0 || ds.KV.Seqs != 0 {
			t.Fatalf("device %d kv cache not quiescent: %+v", i, ds.KV)
		}
	}
	if n := c.OutstandingAttempts(); n != 0 {
		t.Fatalf("%d attempts still outstanding after quiescence", n)
	}
}

// settled collects c's requests, in settle order, as they settle.
func settled(c *LLMCluster) *[]*LLMRequest {
	var reqs []*LLMRequest
	c.OnSettle(func(r *LLMRequest) { reqs = append(reqs, r) })
	return &reqs
}

func TestLLMClusterDisaggregatedFlow(t *testing.T) {
	cfg := LLMConfig{
		Seed:            5,
		Model:           model.LLMTiny,
		PrefillReplicas: 1,
		DecodeReplicas:  2,
	}
	c, err := NewLLM(cfg, SingleHeap)
	if err != nil {
		t.Fatal(err)
	}
	reqs := settled(c)
	env := c.FrontEnv()
	const n = 20
	wantTokens := 0
	for i := 0; i < n; i++ {
		i := i
		prompt := 16 + (i%5)*24
		output := 4 + (i%7)*12
		wantTokens += output
		env.Schedule(time.Duration(i)*300*time.Microsecond, func() {
			if _, err := c.SubmitEvent(0, prompt, output); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		})
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	st := c.Stats()
	if st.Completed != n || st.Failed != 0 {
		t.Fatalf("stats %+v, want %d completed", st, n)
	}
	if st.TokensDelivered != wantTokens {
		t.Fatalf("delivered %d tokens, want %d", st.TokensDelivered, wantTokens)
	}
	// Every multi-token request hands its KV across the link exactly once.
	if st.Transfers == 0 || st.TransferBytes == 0 {
		t.Fatalf("no KV transfers recorded: %+v", st)
	}
	if st.Tokens.TTFT.P50 <= 0 || st.Tokens.TPOT.P50 <= 0 {
		t.Fatalf("token percentiles not populated: %+v", st.Tokens)
	}
	// TTFT includes the prefill queue and pass; TPOT is decode-paced and
	// must be far smaller.
	if st.Tokens.TPOT.P50 >= st.Tokens.TTFT.P50 {
		t.Fatalf("TPOT p50 %v not below TTFT p50 %v", st.Tokens.TPOT.P50, st.Tokens.TTFT.P50)
	}
	// Prefill replicas only hand off; decode replicas only ingest.
	if pd := st.PerDevice[0]; pd.HandedOff == 0 || pd.Ingested != 0 {
		t.Fatalf("prefill device stats %+v", pd)
	}
	if dd := st.PerDevice[1]; dd.Ingested == 0 || dd.HandedOff != 0 {
		t.Fatalf("decode device stats %+v", dd)
	}
	checkLLMClusterConservation(t, c, st)
	if len(*reqs) != n {
		t.Fatalf("%d requests settled, want %d", len(*reqs), n)
	}
	for _, r := range *reqs {
		if r.Err != nil || r.TokensOut != r.OutputTokens {
			t.Fatalf("request %d: %+v", r.ID, r)
		}
	}
}

func TestLLMClusterCrashMidGenerationFailsOver(t *testing.T) {
	// The first decode replica dies mid-run and restarts; in-flight
	// generations drain with ErrDrained and the front-end re-dispatches them
	// through prefill with their delivered tokens carried — conservation
	// must survive the recompute.
	cfg := LLMConfig{
		Seed:            9,
		Model:           model.LLMTiny,
		PrefillReplicas: 1,
		DecodeReplicas:  2,
		Faults: []*faults.Plan{
			nil,
			{Crashes: []faults.CrashEvent{{At: 4 * time.Millisecond, Recovery: 10 * time.Millisecond}}},
			nil,
		},
	}
	c, err := NewLLM(cfg, SingleHeap)
	if err != nil {
		t.Fatal(err)
	}
	reqs := settled(c)
	env := c.FrontEnv()
	const n = 24
	for i := 0; i < n; i++ {
		env.Schedule(time.Duration(i)*250*time.Microsecond, func() {
			c.SubmitEvent(0, 32, 120)
		})
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	st := c.Stats()
	if st.Crashes == 0 {
		t.Fatal("crash plan never engaged")
	}
	if st.Failovers == 0 {
		t.Fatal("no request failed over after the decode crash")
	}
	if st.Completed != n {
		t.Fatalf("stats %+v, want all %d completed via failover", st, n)
	}
	checkLLMClusterConservation(t, c, st)
	recomputed := 0
	for _, r := range *reqs {
		if r.Hops > 0 {
			recomputed++
			if r.TokensOut != r.OutputTokens {
				t.Fatalf("failover request %d delivered %d/%d tokens", r.ID, r.TokensOut, r.OutputTokens)
			}
		}
	}
	if recomputed == 0 {
		t.Fatal("no request records a failover hop")
	}
}

func TestLLMClusterKVPressureDegradesTail(t *testing.T) {
	// A starved decode pool must preempt and queue, degrading TTFT/TPOT
	// tails relative to an ample pool — the acceptance-criteria probe.
	run := func(decodeMem int64) LLMClusterStats {
		weights, err := model.LLMWeightsBytes(model.LLMTiny)
		if err != nil {
			t.Fatal(err)
		}
		spec := gpu.GTX1080Ti
		spec.Name = "decode-cell"
		spec.MemoryBytes = weights + decodeMem
		cfg := LLMConfig{
			Seed:            13,
			Model:           model.LLMTiny,
			PrefillReplicas: 1,
			DecodeReplicas:  1,
			DecodeSpec:      spec,
		}
		c, err := NewLLM(cfg, SingleHeap)
		if err != nil {
			t.Fatal(err)
		}
		env := c.FrontEnv()
		for i := 0; i < 16; i++ {
			env.Schedule(time.Duration(i)*200*time.Microsecond, func() {
				c.SubmitEvent(0, 48, 80)
			})
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		c.Shutdown()
		st := c.Stats()
		checkLLMClusterConservation(t, c, st)
		return st
	}
	ample := run(64 << 20)
	tight := run(640 << 10) // ~320 cache tokens: a few sequences at most
	if tight.Preemptions == 0 {
		t.Fatalf("tight cell never preempted: %+v", tight)
	}
	if ample.Preemptions != 0 {
		t.Fatalf("ample cell preempted: %+v", ample)
	}
	if tight.Completed == 0 {
		t.Fatalf("tight cell completed nothing: %+v", tight)
	}
	if tight.Tokens.TPOT.P99 <= ample.Tokens.TPOT.P99 {
		t.Fatalf("kv pressure did not degrade TPOT tail: tight %v, ample %v",
			tight.Tokens.TPOT.P99, ample.Tokens.TPOT.P99)
	}
}

func TestLLMClusterRejectsBadTopology(t *testing.T) {
	if _, err := NewLLM(LLMConfig{Model: model.LLMTiny, PrefillReplicas: 1}, SingleHeap); err == nil {
		t.Fatal("zero decode replicas must be rejected")
	}
	if _, err := NewLLM(LLMConfig{Model: model.Inception, PrefillReplicas: 1, DecodeReplicas: 1}, SingleHeap); err == nil {
		t.Fatal("CNN model must be rejected")
	}
}

func TestLLMClusterShedsOnBoundedQueues(t *testing.T) {
	cfg := LLMConfig{
		Seed:            3,
		Model:           model.LLMTiny,
		PrefillReplicas: 1,
		DecodeReplicas:  1,
		MaxQueue:        2,
	}
	c, err := NewLLM(cfg, SingleHeap)
	if err != nil {
		t.Fatal(err)
	}
	env := c.FrontEnv()
	env.Schedule(0, func() {
		for i := 0; i < 12; i++ {
			c.SubmitEvent(0, 256, 64)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	st := c.Stats()
	if st.Shed == 0 {
		t.Fatalf("bounded prefill queue shed nothing: %+v", st)
	}
	checkLLMClusterConservation(t, c, st)
	var _ serving.LLMStats = st.PerDevice[0]
}

func TestLLMClusterRetriesRecoverQueueFullSheds(t *testing.T) {
	// A burst overwhelming one bounded prefill queue sheds without retries;
	// with retries armed the rejected requests re-dispatch after backoff and
	// drain through the same partial-carry path failover uses.
	run := func(maxRetries int) LLMClusterStats {
		cfg := LLMConfig{
			Seed:            7,
			Model:           model.LLMTiny,
			PrefillReplicas: 1,
			DecodeReplicas:  1,
			MaxQueue:        2,
			MaxRetries:      maxRetries,
			RetryBackoff:    2 * time.Millisecond,
		}
		c, err := NewLLM(cfg, SingleHeap)
		if err != nil {
			t.Fatal(err)
		}
		env := c.FrontEnv()
		env.Schedule(0, func() {
			for i := 0; i < 10; i++ {
				c.SubmitEvent(0, 128, 32)
			}
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		c.Shutdown()
		st := c.Stats()
		checkLLMClusterConservation(t, c, st)
		return st
	}
	base := run(0)
	if base.Shed == 0 {
		t.Fatalf("baseline burst shed nothing: %+v", base)
	}
	if base.Retries != 0 {
		t.Fatalf("retries fired with MaxRetries=0: %+v", base)
	}
	retried := run(4)
	if retried.Retries == 0 {
		t.Fatalf("no retries fired: %+v", retried)
	}
	if retried.Completed <= base.Completed || retried.Shed >= base.Shed {
		t.Fatalf("retries did not recover sheds: base %d completed / %d shed, retried %d / %d",
			base.Completed, base.Shed, retried.Completed, retried.Shed)
	}
}

func TestLLMClusterRetryCarriesPartialTokens(t *testing.T) {
	// A lone long sequence exhausts a starved decode cache mid-stream; the
	// retry recomputes its KV elsewhere but must never re-emit the tokens the
	// first attempt already delivered.
	weights, err := model.LLMWeightsBytes(model.LLMTiny)
	if err != nil {
		t.Fatal(err)
	}
	spec := gpu.GTX1080Ti
	spec.Name = "starved-decode"
	spec.MemoryBytes = weights + (640 << 10)
	cfg := LLMConfig{
		Seed:            11,
		Model:           model.LLMTiny,
		PrefillReplicas: 1,
		DecodeReplicas:  1,
		DecodeSpec:      spec,
		MaxRetries:      2,
	}
	c, err := NewLLM(cfg, SingleHeap)
	if err != nil {
		t.Fatal(err)
	}
	reqs := settled(c)
	env := c.FrontEnv()
	env.Schedule(0, func() {
		c.SubmitEvent(0, 48, 400)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	st := c.Stats()
	checkLLMClusterConservation(t, c, st)
	if st.Retries == 0 {
		t.Fatalf("kv exhaustion never retried: %+v", st)
	}
	if len(*reqs) != 1 {
		t.Fatalf("%d requests settled, want 1", len(*reqs))
	}
	r := (*reqs)[0]
	if r.Err == nil || r.Retries == 0 {
		t.Fatalf("request did not fail through retries: %+v", r)
	}
	if r.TokensOut == 0 {
		t.Fatal("partial tokens lost across retries")
	}
	// Conservation already asserts the partial tokens were emitted exactly
	// once fleet-wide; the stats must also surface them as partial work.
	if st.Partial != 1 || st.PartialTokens != r.TokensOut {
		t.Fatalf("partial accounting %d/%d, want 1/%d", st.Partial, st.PartialTokens, r.TokensOut)
	}
}

func TestLLMClusterRetryBudgetDeniesStorms(t *testing.T) {
	// With a near-empty retry budget, a shed storm must surface failures
	// instead of amplifying: denied retries settle immediately.
	cfg := LLMConfig{
		Seed:            15,
		Model:           model.LLMTiny,
		PrefillReplicas: 1,
		DecodeReplicas:  1,
		MaxQueue:        1,
		MaxRetries:      3,
		RetryBudgetMax:  2,
		RetryRefund:     0.01,
	}
	c, err := NewLLM(cfg, SingleHeap)
	if err != nil {
		t.Fatal(err)
	}
	env := c.FrontEnv()
	env.Schedule(0, func() {
		for i := 0; i < 16; i++ {
			c.SubmitEvent(0, 256, 64)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	st := c.Stats()
	checkLLMClusterConservation(t, c, st)
	if st.RetryDenied == 0 {
		t.Fatalf("drained budget denied nothing: %+v", st)
	}
	if st.Retries > 2+st.Completed {
		t.Fatalf("retries %d exceed the budget plus refunds: %+v", st.Retries, st)
	}
}

package cluster_test

import (
	"testing"
	"time"

	"olympian/internal/cluster"
	"olympian/internal/faults"
	"olympian/internal/invariant"
	"olympian/internal/model"
	"olympian/internal/overload"
)

// TestLLMRecycledAttemptSurvivesCrash runs a 1+1 LLM fleet whose decode
// replica crashes twice while decode steps are in flight, with far more
// attempts than attempt records, so records and the device-side requests
// they hold are reused across failovers. The audits must stay clean and
// every request must settle exactly once.
func TestLLMRecycledAttemptSurvivesCrash(t *testing.T) {
	cfg := cluster.LLMConfig{
		Seed:            4,
		Model:           model.LLMTiny,
		PrefillReplicas: 1,
		DecodeReplicas:  1,
		Faults: []*faults.Plan{
			nil,
			{Crashes: []faults.CrashEvent{
				{At: 30 * time.Millisecond, Recovery: 10 * time.Millisecond},
				{At: 90 * time.Millisecond, Recovery: 10 * time.Millisecond},
			}},
		},
	}
	c, err := cluster.NewLLM(cfg, cluster.Sharded)
	if err != nil {
		t.Fatal(err)
	}
	settled := make(map[int]int)
	c.OnSettle(func(r *cluster.LLMRequest) { settled[r.ID]++ })
	const n = 600
	i := 0
	next := func() invariant.Arrival {
		i++
		return invariant.Arrival{At: time.Duration(i) * 250 * time.Microsecond, Class: overload.Class(i % 2), Prompt: 48, Output: 24}
	}
	st, vs, err := invariant.DriveLLM(c, n, next, "recycle")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		t.Error(v)
	}
	if st.Crashes < 2 || st.Failovers == 0 || st.PerDevice[1].Partial == 0 {
		t.Fatalf("crashes %d, failovers %d, decode partials %d: the crashes never caught a decode step in flight",
			st.Crashes, st.Failovers, st.PerDevice[1].Partial)
	}
	if st.Requests != n || len(settled) != n {
		t.Fatalf("%d requests routed, %d settled", st.Requests, len(settled))
	}
	for id, k := range settled {
		if k != 1 {
			t.Fatalf("request %d settled %d times", id, k)
		}
	}
	attempts := st.Requests + st.Transfers + st.Failovers + st.Retries
	t.Logf("%d attempts on %d records; %d completed, %d failed, %d failovers", attempts, cluster.FreeLLMAttempts(c), st.Completed, st.Failed, st.Failovers)
	if records := cluster.FreeLLMAttempts(c); records >= attempts/4 {
		t.Fatalf("%d attempt records for %d attempts: records were not recycled", records, attempts)
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"olympian/cmd/internal/spec"
)

func do(t *testing.T, h http.Handler, method, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var obj map[string]any
	if strings.HasPrefix(strings.TrimSpace(rec.Body.String()), "{") {
		if err := json.Unmarshal(rec.Body.Bytes(), &obj); err != nil {
			t.Fatalf("decode %s %s: %v\n%s", method, path, err, rec.Body.String())
		}
	}
	return rec, obj
}

func TestModelsEndpoint(t *testing.T) {
	h := newHandler()
	rec, _ := do(t, h, "GET", "/models", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var rows []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("%d models, want 7", len(rows))
	}
}

func TestProfileEndpoint(t *testing.T) {
	h := newHandler()
	rec, obj := do(t, h, "POST", "/profile", `{"model":"resnet-152","batch":50}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, obj)
	}
	if obj["rate"].(float64) <= 0 {
		t.Fatalf("rate %v", obj["rate"])
	}
	rec, _ = do(t, h, "POST", "/profile", `{"model":"bogus"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bogus model status %d", rec.Code)
	}
}

func TestSimulateEndpoint(t *testing.T) {
	h := newHandler()
	body := `{"scheduler":"olympian","policy":"fair",
	  "clients":[{"model":"inception-v4","batch":50,"batches":2,"count":3}]}`
	rec, obj := do(t, h, "POST", "/simulate", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, obj)
	}
	if spread := obj["spread"].(float64); spread > 1.02 {
		t.Fatalf("olympian spread %v", spread)
	}
	fin := obj["finishSec"].([]any)
	if len(fin) != 3 {
		t.Fatalf("%d finishes, want 3", len(fin))
	}
	rec, _ = do(t, h, "POST", "/simulate", `{"scheduler":"warp-drive"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad scheduler status %d", rec.Code)
	}
	rec, _ = do(t, h, "POST", "/simulate", `{"scheduler":"olympian"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("no clients status %d", rec.Code)
	}
}

func TestExperimentEndpoints(t *testing.T) {
	h := newHandler()
	rec, _ := do(t, h, "GET", "/experiments", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("list status %d", rec.Code)
	}
	rec, obj := do(t, h, "POST", "/experiments/fig4?quick=1", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("run status %d: %v", rec.Code, obj)
	}
	if obj["id"] != "fig4" {
		t.Fatalf("id %v", obj["id"])
	}
	rec, _ = do(t, h, "POST", "/experiments/nope", "")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown experiment status %d", rec.Code)
	}
	// A run's report metrics must land in the scrape output as labeled gauges.
	rec, _ = do(t, h, "GET", "/metrics", "")
	if body := rec.Body.String(); !strings.Contains(body, `olympian_experiment_metric{experiment="fig4",metric=`) {
		t.Fatalf("experiment metrics not exported as gauges:\n%s", body)
	}
}

// TestFullSizeExperimentsBounded fills the full-size run semaphore: a
// further full-size run is refused with 503 and counted as an experiment
// error, while a quick run still goes through.
func TestFullSizeExperimentsBounded(t *testing.T) {
	for i := 0; i < maxFullRuns; i++ {
		fullRuns <- struct{}{}
	}
	defer func() {
		for i := 0; i < maxFullRuns; i++ {
			<-fullRuns
		}
	}()
	h := newHandler()
	rec, obj := do(t, h, "POST", "/experiments/fig4", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("full-size run over the cap: status %d: %v", rec.Code, obj)
	}
	rec, obj = do(t, h, "POST", "/experiments/fig4?quick=1", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("quick run with the full-size cap reached: status %d: %v", rec.Code, obj)
	}
	rec, _ = do(t, h, "GET", "/metrics", "")
	if body := rec.Body.String(); !strings.Contains(body, "olympian_experiment_errors_total 1\n") {
		t.Fatalf("refused run not counted as an experiment error:\n%s", body)
	}
}

func TestPlanEndpoint(t *testing.T) {
	h := newHandler()
	body := `{"policy":"weighted",
	  "clients":[{"model":"inception-v4","batch":50,"batches":2,"count":2,"weight":2},
	             {"model":"inception-v4","batch":50,"batches":2,"count":2,"weight":1}]}`
	rec, obj := do(t, h, "POST", "/plan", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, obj)
	}
	fins := obj["finishSec"].([]any)
	if len(fins) != 4 {
		t.Fatalf("%d predictions", len(fins))
	}
	// Heavy clients finish earlier than light ones.
	if fins[0].(float64) >= fins[2].(float64) {
		t.Fatalf("weighted plan not ordered: %v", fins)
	}
	rec, _ = do(t, h, "POST", "/plan", `{"policy":"lottery","clients":[{"model":"vgg","batch":10}]}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unsupported planner policy status %d", rec.Code)
	}
}

func TestTraceEndpoint(t *testing.T) {
	h := newHandler()
	body := `{"clients":[{"model":"inception-v4","batch":40,"batches":1,"count":2}]}`
	rec, _ := do(t, h, "POST", "/trace", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "traceEvents") {
		t.Fatal("trace output missing traceEvents")
	}
	if !strings.Contains(rec.Body.String(), `"ph":"X"`) {
		t.Fatal("trace output missing slices")
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	h := newHandler()
	big := `{"scheduler":"olympian","clients":[` +
		strings.Repeat(`{"model":"inception-v4","batch":50},`, 40000) +
		`{"model":"inception-v4","batch":50}]}`
	if len(big) <= maxRequestBody {
		t.Fatalf("test body only %d bytes, need > %d", len(big), maxRequestBody)
	}
	rec, _ := do(t, h, "POST", "/simulate", big)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized body status %d, want 400", rec.Code)
	}
}

// TestClientCountCapped checks that a tiny body asking for billions of
// clients, or groups that only together pass spec.MaxClients, is rejected with
// 400 by the cap on every endpoint that expands client groups, and that the
// cap itself is still accepted.
func TestClientCountCapped(t *testing.T) {
	h := newHandler()
	group := func(count int) string {
		return fmt.Sprintf(`{"model":"inception-v4","batch":1,"batches":1,"count":%d}`, count)
	}
	for _, body := range []string{
		`{"clients":[{"model":"inception","batch":1,"batches":1,"count":2000000000}]}`,
		`{"clients":[` + group(math.MaxInt64) + "," + group(1) + `]}`,
		`{"clients":[` + group(spec.MaxClients/2+1) + "," + group(spec.MaxClients/2) + `]}`,
	} {
		for _, path := range []string{"/simulate", "/plan", "/trace"} {
			rec, obj := do(t, h, "POST", path, body)
			if msg, _ := obj["error"].(string); rec.Code != http.StatusBadRequest || !strings.Contains(msg, "more than") {
				t.Errorf("%s with %s: status %d (error %q), want 400 from the client cap", path, body, rec.Code, msg)
			}
		}
	}
	body := `{"clients":[` + group(spec.MaxClients) + `]}`
	if rec, obj := do(t, h, "POST", "/plan", body); rec.Code != http.StatusOK {
		t.Fatalf("/plan with exactly %d clients: status %d: %v", spec.MaxClients, rec.Code, obj["error"])
	}
}

// TestJobBudgetCapped checks that a tiny body asking one client for
// billions of sequential batches, or groups whose clients × batches only
// together pass spec.MaxJobs, is rejected with 400 before any simulation starts
// on the endpoints that simulate, while the analytic /plan still answers.
func TestJobBudgetCapped(t *testing.T) {
	h := newHandler()
	group := func(count, batches int) string {
		return fmt.Sprintf(`{"model":"inception-v4","batch":1,"batches":%d,"count":%d}`, batches, count)
	}
	huge := `{"clients":[{"model":"inception","batch":1,"batches":2000000000}]}`
	for _, body := range []string{
		huge,
		`{"clients":[` + group(1, math.MaxInt64) + "," + group(1, 1) + `]}`,
		`{"clients":[` + group(spec.MaxClients/2, spec.MaxJobs/spec.MaxClients) + "," + group(spec.MaxClients/2, spec.MaxJobs/spec.MaxClients+1) + `]}`,
	} {
		for _, path := range []string{"/simulate", "/trace"} {
			rec, obj := do(t, h, "POST", path, body)
			if msg, _ := obj["error"].(string); rec.Code != http.StatusBadRequest || !strings.Contains(msg, "jobs: more than") {
				t.Errorf("%s with %s: status %d (error %q), want 400 from the job budget", path, body, rec.Code, msg)
			}
		}
	}
	if rec, obj := do(t, h, "POST", "/plan", `{"clients":[`+group(1, 2000000000)+`]}`); rec.Code != http.StatusOK {
		t.Fatalf("/plan with 2e9 batches: status %d: %v", rec.Code, obj["error"])
	}
}

func TestMetricsEndpoint(t *testing.T) {
	h := newHandler()
	// Drive some traffic so counters move: one good simulate, one bad.
	do(t, h, "POST", "/simulate", `{"scheduler":"olympian","policy":"fair",
	  "clients":[{"model":"inception-v4","batch":40,"batches":1,"count":2}]}`)
	do(t, h, "POST", "/simulate", `{"scheduler":"warp-drive"}`)
	rec, _ := do(t, h, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE olympian_http_requests_total counter",
		`olympian_http_requests_total{endpoint="simulate"} 2`,
		"olympian_simulations_total 1",
		"olympian_simulation_errors_total 1",
		// Per-endpoint latency is a native histogram family: bucket series,
		// +Inf terminal bucket, and the count matching the request counter.
		"# TYPE olympian_http_request_duration_seconds histogram",
		`olympian_http_request_duration_seconds_bucket{endpoint="simulate",le="+Inf"} 2`,
		`olympian_http_request_duration_seconds_count{endpoint="simulate"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
	// The scrape counts itself before rendering, so the first scrape reads 1
	// and a second reads 2.
	if !strings.Contains(body, `olympian_http_requests_total{endpoint="metrics"} 1`) {
		t.Fatalf("metrics endpoint not self-counting:\n%s", body)
	}
	rec, _ = do(t, h, "GET", "/metrics", "")
	if !strings.Contains(rec.Body.String(), `olympian_http_requests_total{endpoint="metrics"} 2`) {
		t.Fatalf("metrics scrape counter stuck:\n%s", rec.Body.String())
	}
}

func TestTimelineEndpoint(t *testing.T) {
	h := newHandler()
	rec, obj := do(t, h, "GET", "/timeline?seed=1&load=4", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	if obj["ticks"].(float64) <= 0 {
		t.Fatalf("no ticks sampled: %v", obj["ticks"])
	}
	// 4x offered load runs past saturation, so the latency SLOs must burn
	// fast enough to fire at least one alert on the virtual timeline.
	alerts := obj["alerts"].([]any)
	if len(alerts) == 0 {
		t.Fatalf("no SLO alerts at 4x load:\n%s", rec.Body.String())
	}
	first := alerts[0].(map[string]any)
	if first["state"] != "firing" {
		t.Fatalf("first alert transition %v, want firing", first["state"])
	}

	// The demo is virtual-time only: same seed and load replay byte-identically.
	rec2, _ := do(t, h, "GET", "/timeline?seed=1&load=4", "")
	if rec.Body.String() != rec2.Body.String() {
		t.Fatal("same-seed timeline responses differ")
	}
	// The body is pinned: the demo replays one point of the overload
	// experiment, so its bytes move only when that experiment's output does.
	f := fnv.New64a()
	f.Write(rec.Body.Bytes())
	if got, want := f.Sum64(), uint64(0x59fcb6b2b6b3d81e); got != want {
		t.Fatalf("timeline body hash %#016x, want %#016x", got, want)
	}

	// Final burn rates land on the scrape endpoint as slo/rule gauges.
	mrec, _ := do(t, h, "GET", "/metrics", "")
	prom := mrec.Body.String()
	for _, want := range []string{
		"# TYPE olympian_slo_burn_rate gauge",
		`olympian_slo_burn_rate{slo="request-latency",rule="fast"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("scrape output missing %q:\n%s", want, prom)
		}
	}

	rec, _ = do(t, h, "GET", "/timeline?load=bogus", "")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad load status %d", rec.Code)
	}
	rec, _ = do(t, h, "GET", "/timeline?seed=bogus", "")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad seed status %d", rec.Code)
	}
}

func TestChaosExperimentEndpoint(t *testing.T) {
	h := newHandler()
	rec, obj := do(t, h, "POST", "/experiments/chaos?quick=1", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("run status %d: %v", rec.Code, obj)
	}
	metrics := obj["metrics"].(map[string]any)
	if metrics["deterministic"].(float64) != 1 {
		t.Fatalf("chaos run not deterministic: %v", metrics)
	}
}

func TestClusterExperimentEndpoint(t *testing.T) {
	h := newHandler()
	rec, obj := do(t, h, "POST", "/experiments/cluster?quick=1", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("run status %d: %v", rec.Code, obj)
	}
	metrics := obj["metrics"].(map[string]any)
	if metrics["deterministic"].(float64) != 1 {
		t.Fatalf("cluster run not deterministic: %v", metrics)
	}
	if metrics["failover_failed"].(float64) != 0 {
		t.Fatalf("cluster failover left failures: %v", metrics)
	}
}

func TestLLMExperimentEndpoint(t *testing.T) {
	h := newHandler()
	rec, obj := do(t, h, "POST", "/experiments/llm?quick=1", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("run status %d: %v", rec.Code, obj)
	}
	metrics := obj["metrics"].(map[string]any)
	if metrics["bit_identical"].(float64) != 1 {
		t.Fatalf("llm engines diverged: %v", metrics)
	}
	if metrics["invariant_violations"].(float64) != 0 {
		t.Fatalf("llm run violated conservation: %v", metrics)
	}
}

func TestLLMOverloadExperimentEndpoint(t *testing.T) {
	h := newHandler()
	rec, obj := do(t, h, "POST", "/experiments/llmoverload?quick=1", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("run status %d: %v", rec.Code, obj)
	}
	metrics := obj["metrics"].(map[string]any)
	if metrics["bit_identical"].(float64) != 1 {
		t.Fatalf("llmoverload engines diverged: %v", metrics)
	}
	if metrics["invariant_violations"].(float64) != 0 {
		t.Fatalf("llmoverload run violated conservation: %v", metrics)
	}
	if metrics["plateau_ratio"].(float64) < 0.9 {
		t.Fatalf("goodput collapsed past saturation: %v", metrics)
	}

	// The per-class SLO-attainment and truncation outcomes must surface on
	// the scrape endpoint as experiment-metric gauges.
	rec, _ = do(t, h, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	prom := rec.Body.String()
	for _, metric := range []string{
		"interactive_ttft_slo_attainment",
		"batch_truncated_tokens",
		"interactive_truncated_tokens",
		"batch_absorb_frac",
	} {
		want := `olympian_experiment_metric{experiment="llmoverload",metric="` + metric + `"}`
		if !strings.Contains(prom, want) {
			t.Errorf("scrape output missing %s", want)
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"olympian"
	"olympian/cmd/internal/spec"
	"olympian/internal/model"
	"olympian/internal/obs"
	"olympian/internal/overload"
	"olympian/internal/serving"
	"olympian/internal/sim"
	"olympian/internal/telemetry"
)

// api holds the server's metrics registry; handlers that count domain events
// (simulations, experiment runs) hang off it.
type api struct {
	metrics  *obs.Registry
	simC     *obs.Series
	simErrC  *obs.Series
	expC     *obs.Series
	expErrC  *obs.Series
	profileC *obs.Series
}

// newHandler builds the HTTP API. Every endpoint counts its requests into
// olympian_http_requests_total{endpoint=...}; GET /metrics exposes the
// registry in Prometheus text format.
func newHandler() http.Handler {
	a := &api{metrics: obs.NewRegistry()}
	a.simC = a.metrics.Counter("olympian_simulations_total",
		"Simulations run via POST /simulate or /trace.")
	a.simErrC = a.metrics.Counter("olympian_simulation_errors_total",
		"Simulation requests rejected or failed.")
	a.expC = a.metrics.Counter("olympian_experiment_runs_total",
		"Paper-reproduction experiments run via POST /experiments/{id}.")
	a.expErrC = a.metrics.Counter("olympian_experiment_errors_total",
		"Experiment requests rejected or failed.")
	a.profileC = a.metrics.Counter("olympian_profiles_total",
		"Offline profiles computed via POST /profile.")

	mux := http.NewServeMux()
	handle := func(pattern, endpoint string, h http.HandlerFunc) {
		c := a.metrics.Counter("olympian_http_requests_total",
			"HTTP requests served, by endpoint.", "endpoint", endpoint)
		d := a.metrics.Histogram("olympian_http_request_duration_seconds",
			"Wall-clock HTTP request duration, by endpoint.", "endpoint", endpoint)
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			c.Inc()
			start := time.Now()
			h(w, r)
			d.Observe(time.Since(start))
		})
	}
	handle("GET /models", "models", handleModels)
	handle("POST /profile", "profile", a.handleProfile)
	handle("POST /simulate", "simulate", a.handleSimulate)
	handle("GET /experiments", "experiments", handleExperimentList)
	handle("POST /experiments/", "experiment_run", a.handleExperimentRun)
	handle("POST /plan", "plan", handlePlan)
	handle("POST /trace", "trace", a.handleTrace)
	handle("GET /timeline", "timeline", a.handleTimeline)
	handle("GET /metrics", "metrics", a.handleMetrics)
	return mux
}

// handleMetrics renders the registry in Prometheus text exposition format.
func (a *api) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = a.metrics.WritePrometheus(w)
}

// maxRequestBody caps POST bodies: every request is a small JSON document,
// so anything beyond 1 MiB is hostile or broken.
const maxRequestBody = 1 << 20

// decodeJSON parses a size-limited JSON request body into v.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func handleModels(w http.ResponseWriter, _ *http.Request) {
	type row struct {
		Model      string  `json:"model"`
		PaperBatch int     `json:"paperBatch"`
		Nodes      int     `json:"nodes"`
		GPUNodes   int     `json:"gpuNodes"`
		RuntimeSec float64 `json:"paperRuntimeSec"`
	}
	var rows []row
	for _, e := range model.Table2() {
		rows = append(rows, row{
			Model: e.Model, PaperBatch: e.Batch,
			Nodes: e.Nodes, GPUNodes: e.GPUNodes,
			RuntimeSec: e.Runtime.Seconds(),
		})
	}
	writeJSON(w, http.StatusOK, rows)
}

type profileRequest struct {
	Model string `json:"model"`
	Batch int    `json:"batch"`
	GPU   string `json:"gpu"`
}

func (a *api) handleProfile(w http.ResponseWriter, r *http.Request) {
	var req profileRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec := olympian.GTX1080Ti
	if req.GPU == "titan-x" {
		spec = olympian.TitanX
	}
	if req.Batch <= 0 {
		req.Batch = 100
	}
	prof, err := olympian.Profile(req.Model, req.Batch, spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	a.profileC.Inc()
	writeJSON(w, http.StatusOK, map[string]any{
		"model":          prof.Model,
		"batch":          prof.Batch,
		"totalCostMs":    prof.TotalCost.Seconds() * 1e3,
		"gpuDurationMs":  prof.GPUDuration.Seconds() * 1e3,
		"rate":           prof.Rate(),
		"soloRuntimeMs":  prof.Runtime.Seconds() * 1e3,
		"thresholdUsAtQ": map[string]float64{"1200us": float64(prof.Threshold(1200 * time.Microsecond).Microseconds())},
	})
}

// The request caps spec.Simulation enforces, under the names the handler
// tests use: every endpoint that expands client groups takes maxClients,
// and the simulating ones also take maxJobs.
const (
	maxClients = spec.MaxClients
	maxJobs    = spec.MaxJobs
)

// handleSimulate runs the spec.Simulation in the body and answers with its
// finish times and scheduling statistics.
func (a *api) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req spec.Simulation
	if err := decodeJSON(w, r, &req); err != nil {
		a.simErrC.Inc()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cfg, clients, err := req.Build()
	if err != nil {
		a.simErrC.Inc()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := olympian.Simulate(cfg, clients)
	if err != nil {
		a.simErrC.Inc()
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	a.simC.Inc()
	finishes := make([]float64, 0, len(clients))
	for _, d := range res.FinishTimes() {
		finishes = append(finishes, d.Seconds())
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"finishSec":     finishes,
		"spread":        res.FinishSpread(),
		"utilization":   res.Utilization(),
		"tokenSwitches": res.TokenSwitches(),
		"meanQuantumUs": float64(res.MeanQuantum().Microseconds()),
		"elapsedSec":    res.Elapsed().Seconds(),
		"failedClients": res.FailedClients(),
	})
}

// handlePlan predicts finish times analytically (processor-sharing fluid
// model) without running the simulation.
func handlePlan(w http.ResponseWriter, r *http.Request) {
	var req spec.Simulation
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	policy := olympian.PlanFair
	switch req.Policy {
	case "", "fair":
	case "weighted":
		policy = olympian.PlanWeighted
	case "priority":
		policy = olympian.PlanPriority
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("planner supports fair|weighted|priority, not %q", req.Policy))
		return
	}
	clients, err := req.ExpandClients()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	fins, err := olympian.Plan(clients, policy, olympian.GTX1080Ti)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	out := make([]float64, len(fins))
	for i, f := range fins {
		out[i] = f.Seconds()
	}
	writeJSON(w, http.StatusOK, map[string]any{"finishSec": out})
}

// handleTrace runs a simulation and returns its scheduling timeline as a
// Chrome trace (open with chrome://tracing or ui.perfetto.dev).
func (a *api) handleTrace(w http.ResponseWriter, r *http.Request) {
	var req spec.Simulation
	if err := decodeJSON(w, r, &req); err != nil {
		a.simErrC.Inc()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Scheduler == "" {
		req.Scheduler = "olympian"
	}
	cfg, clients, err := req.Build()
	if err != nil {
		a.simErrC.Inc()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := olympian.Simulate(cfg, clients)
	if err != nil {
		a.simErrC.Inc()
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	a.simC.Inc()
	w.Header().Set("Content-Type", "application/json")
	if err := res.WriteTrace(w, clients); err != nil {
		writeError(w, http.StatusInternalServerError, err)
	}
}

func handleExperimentList(w http.ResponseWriter, _ *http.Request) {
	type row struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	var rows []row
	for _, e := range olympian.Experiments() {
		rows = append(rows, row{ID: e.ID, Title: e.Title})
	}
	writeJSON(w, http.StatusOK, rows)
}

// handleTimeline runs a short deterministic overload demo with the
// virtual-clock telemetry sampler attached and streams the merged timeline
// (ring-buffer series, burn rates, alert log) as JSON. Query params: seed
// (default 1) and load (offered-load multiple of the saturation rate,
// default 4 — past capacity, so the latency SLOs burn and alerts fire).
// The final burn-rate values are folded into olympian_slo_burn_rate gauges
// so the next GET /metrics scrape reflects the demo's SLO state.
func (a *api) handleTimeline(w http.ResponseWriter, r *http.Request) {
	seed := int64(1)
	if s := r.URL.Query().Get("seed"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad seed %q: %w", s, err))
			return
		}
		seed = v
	}
	mult := 4.0
	if s := r.URL.Query().Get("load"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v <= 0 || v > 16 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad load %q (want 0 < load <= 16)", s))
			return
		}
		mult = v
	}
	tl, err := runTimelineDemo(seed, mult)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	burns := tl.Burns()
	keys := make([]string, 0, len(burns))
	for k := range burns {
		keys = append(keys, k)
	}
	// Sorted so gauge registration order (and thus /metrics output) is
	// independent of map iteration order.
	sort.Strings(keys)
	for _, k := range keys {
		vs := burns[k]
		if len(vs) == 0 {
			continue
		}
		slo, rule, _ := strings.Cut(k, "/")
		a.metrics.Gauge("olympian_slo_burn_rate",
			"Final long-window error-budget burn rate per SLO/rule pair from the latest GET /timeline demo (1 = burning exactly the budget).",
			"slo", slo, "rule", rule).Set(vs[len(vs)-1])
	}
	w.Header().Set("Content-Type", "application/json")
	_ = tl.WriteJSON(w)
}

// runTimelineDemo replays the overload experiment's hardest sweep point with
// the telemetry plane attached: open-loop Poisson arrivals at mult times the
// single-device saturation rate against an AIMD-admitted serving front-end,
// sampled every telemetry tick on the virtual clock. Everything runs in
// simulated time, so the timeline is a deterministic function of (seed, mult).
func runTimelineDemo(seed int64, mult float64) (*telemetry.Timeline, error) {
	env := sim.NewEnv(seed)
	defer env.Shutdown()
	rec := obs.NewRecorder()
	rec.Bind(env, "timeline-demo")
	tcfg := telemetry.Config{SLOs: telemetry.DefaultServingSLOs(), Rules: telemetry.DefaultRules()}
	sampler := telemetry.NewSampler(tcfg, rec.Registry())
	sampler.Bind(env)
	srv, err := serving.NewServer(env, serving.Config{
		MaxBatch:     8,
		BatchTimeout: 2 * time.Millisecond,
		MaxQueue:     64,
		Deadline:     120 * time.Millisecond,
		Seed:         seed,
		Admission:    &overload.AIMDConfig{},
		Obs:          rec,
	})
	if err != nil {
		return nil, err
	}
	const horizon = time.Second
	rate := 260.0 * mult
	rng := rand.New(rand.NewSource(seed + 57))
	t := time.Duration(0)
	n := 0
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= horizon {
			break
		}
		at := t
		class := overload.Batch
		if rng.Float64() < 0.3 {
			class = overload.Interactive
		}
		n++
		env.Go(fmt.Sprintf("client-%d", n), func(p *sim.Proc) {
			p.Sleep(at)
			req, err := srv.SubmitClass(p, model.Inception, class)
			if err != nil {
				return
			}
			req.Wait(p)
		})
	}
	if err := env.Run(); err != nil {
		return nil, err
	}
	tl := telemetry.Merge(tcfg, []*telemetry.Sampler{sampler})
	tl.LogAlerts(rec)
	return tl, nil
}

func (a *api) handleExperimentRun(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/experiments/")
	if id == "" {
		a.expErrC.Inc()
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing experiment id"))
		return
	}
	quick := r.URL.Query().Get("quick") != ""
	rep, err := olympian.RunExperiment(id, quick)
	if err != nil {
		a.expErrC.Inc()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	a.expC.Inc()
	// Fold the report's machine-readable metrics into the registry so scrape
	// dashboards see experiment outcomes (e.g. recovery MTTR, availability,
	// invariant violations) without parsing the JSON response.
	for name, v := range rep.Metrics {
		a.metrics.Gauge("olympian_experiment_metric",
			"Latest value of each experiment-report metric, labeled by experiment and metric name.",
			"experiment", rep.ID, "metric", name).Set(v)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":      rep.ID,
		"title":   rep.Title,
		"paper":   rep.Paper,
		"headers": rep.Headers,
		"rows":    rep.Rows,
		"notes":   rep.Notes,
		"metrics": rep.Metrics,
	})
}

package profiler

import (
	"testing"
	"time"

	"olympian/internal/graph"
	"olympian/internal/model"
)

func mustBuild(t *testing.T, name string, batch int) *graph.Graph {
	t.Helper()
	g, err := model.Build(name, batch)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestProfileSoloBasics(t *testing.T) {
	g := mustBuild(t, model.Inception, 50)
	r, err := ProfileSolo(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalCost <= 0 || r.GPUDuration <= 0 || r.Runtime <= 0 {
		t.Fatalf("degenerate profile: %+v", r)
	}
	// Costs include launch latency, so C_j >= sum over nodes of kernel
	// time; D_j is a union of intervals, so D_j <= Runtime.
	if r.GPUDuration > r.Runtime {
		t.Fatalf("GPU duration %v exceeds runtime %v", r.GPUDuration, r.Runtime)
	}
	// Rate C/D >= 1 only when kernels overlap little; it must be positive
	// and sane either way.
	if rate := r.Rate(); rate < 0.5 || rate > 50 {
		t.Fatalf("cost accumulation rate %.2f out of sane range", rate)
	}
	// Every GPU node got a cost; every CPU node cost zero.
	for _, n := range g.Nodes {
		if n.IsGPU() && r.NodeCost[n.ID] <= 0 {
			t.Fatalf("GPU node %d has no cost", n.ID)
		}
		if !n.IsGPU() && r.NodeCost[n.ID] != 0 {
			t.Fatalf("CPU node %d has cost %v", n.ID, r.NodeCost[n.ID])
		}
	}
}

func TestThresholdFormula(t *testing.T) {
	r := &Result{TotalCost: 300 * time.Millisecond, GPUDuration: 100 * time.Millisecond}
	q := 1200 * time.Microsecond
	want := 3600 * time.Microsecond // Q * C/D = 1200us * 3
	if got := r.Threshold(q); got != want {
		t.Fatalf("threshold = %v, want %v", got, want)
	}
	jp := r.JobProfile(q)
	if jp.Threshold != want {
		t.Fatalf("job profile threshold = %v, want %v", jp.Threshold, want)
	}
}

func TestStabilityAcrossRuns(t *testing.T) {
	// Paper §4.4: total cost and GPU duration are highly stable across
	// runs (std well under 5% of mean).
	g := mustBuild(t, model.Inception, 50)
	st, err := MeasureStability(g, 8, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rel := float64(st.CostStd) / float64(st.CostMean); rel > 0.05 {
		t.Errorf("cost relative std %.3f, want < 0.05", rel)
	}
	if rel := float64(st.DurStd) / float64(st.DurMean); rel > 0.05 {
		t.Errorf("duration relative std %.3f, want < 0.05", rel)
	}
}

func TestOverheadCurveDecreasesWithQ(t *testing.T) {
	g := mustBuild(t, model.Inception, 50)
	prof, err := ProfileSolo(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	qs := []time.Duration{400 * time.Microsecond, 1200 * time.Microsecond, 3600 * time.Microsecond}
	curve, err := MeasureOverheadCurve(g, prof, qs, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != 3 {
		t.Fatalf("curve has %d points", len(curve.Points))
	}
	first, last := curve.Points[0].Overhead, curve.Points[len(curve.Points)-1].Overhead
	if first <= last {
		t.Fatalf("overhead not decreasing in Q: %.4f .. %.4f", first, last)
	}
	if last > 0.05 {
		t.Fatalf("overhead at large Q is %.3f, want small", last)
	}
}

func TestChooseQInterpolates(t *testing.T) {
	curve := &OverheadCurve{Points: []QPoint{
		{Q: 500 * time.Microsecond, Overhead: 0.06},
		{Q: 1000 * time.Microsecond, Overhead: 0.03},
		{Q: 2000 * time.Microsecond, Overhead: 0.01},
	}}
	q := ChooseQ(curve, 0.045)
	if q <= 500*time.Microsecond || q >= 1000*time.Microsecond {
		t.Fatalf("ChooseQ = %v, want interpolated between 500us and 1000us", q)
	}
	// Tolerance met by the first point: return it.
	if q := ChooseQ(curve, 0.10); q != 500*time.Microsecond {
		t.Fatalf("ChooseQ loose tolerance = %v, want 500us", q)
	}
	// Tolerance unreachable: return the largest Q.
	if q := ChooseQ(curve, 0.001); q != 2000*time.Microsecond {
		t.Fatalf("ChooseQ tight tolerance = %v, want 2000us", q)
	}
}

func TestChooseQForSetTakesLargest(t *testing.T) {
	a := &OverheadCurve{Points: []QPoint{{Q: 500 * time.Microsecond, Overhead: 0.01}}}
	b := &OverheadCurve{Points: []QPoint{{Q: 1500 * time.Microsecond, Overhead: 0.01}}}
	if q := ChooseQForSet([]*OverheadCurve{a, b}, 0.025); q != 1500*time.Microsecond {
		t.Fatalf("set Q = %v, want 1500us", q)
	}
}

func TestOnlineOverheadInRange(t *testing.T) {
	// Paper Figure 6: online profiling inflates runtimes by roughly a
	// fifth to a third.
	g := mustBuild(t, model.VGG, 60)
	oo, err := MeasureOnlineOverhead(g, DefaultOnlineTax, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if oo.Overhead < 0.10 || oo.Overhead > 0.45 {
		t.Fatalf("online overhead %.2f, want within [0.10, 0.45]", oo.Overhead)
	}
}

func TestLinearModelPredictsNearbyBatches(t *testing.T) {
	g50 := mustBuild(t, model.Inception, 50)
	g100 := mustBuild(t, model.Inception, 100)
	r50, err := ProfileSolo(g50, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r100, err := ProfileSolo(g100, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	lm, err := FitLinearModel([]struct {
		Graph  *graph.Graph
		Result *Result
	}{{g50, r50}, {g100, r100}})
	if err != nil {
		t.Fatal(err)
	}
	// Predict batch 75 and compare against a real profile.
	g75 := mustBuild(t, model.Inception, 75)
	pred, err := lm.Predict(g75)
	if err != nil {
		t.Fatal(err)
	}
	real75, err := ProfileSolo(g75, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	costErr := relErr(float64(pred.TotalCost), float64(real75.TotalCost))
	durErr := relErr(float64(pred.GPUDuration), float64(real75.GPUDuration))
	if costErr > 0.15 {
		t.Errorf("predicted C off by %.0f%% (pred %v, real %v)", costErr*100, pred.TotalCost, real75.TotalCost)
	}
	if durErr > 0.15 {
		t.Errorf("predicted D off by %.0f%% (pred %v, real %v)", durErr*100, pred.GPUDuration, real75.GPUDuration)
	}
	// The predicted rate drives the threshold; it should be close too.
	if rateErr := relErr(pred.Rate(), real75.Rate()); rateErr > 0.15 {
		t.Errorf("predicted rate off by %.0f%%", rateErr*100)
	}
}

func TestLinearModelRejectsMismatch(t *testing.T) {
	g1 := mustBuild(t, model.Inception, 50)
	r1, err := ProfileSolo(g1, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FitLinearModel([]struct {
		Graph  *graph.Graph
		Result *Result
	}{{g1, r1}}); err == nil {
		t.Fatal("expected error for single-point fit")
	}
	g2 := mustBuild(t, model.VGG, 50)
	r2, err := ProfileSolo(g2, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FitLinearModel([]struct {
		Graph  *graph.Graph
		Result *Result
	}{{g1, r1}, {g2, r2}}); err == nil {
		t.Fatal("expected error for mixed models")
	}
	lm, err := FitLinearModel([]struct {
		Graph  *graph.Graph
		Result *Result
	}{{g1, r1}, {mustBuild(t, model.Inception, 100), mustProfile(t, model.Inception, 100)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lm.Predict(g2); err == nil {
		t.Fatal("expected error predicting a different model")
	}
}

func mustProfile(t *testing.T, name string, batch int) *Result {
	t.Helper()
	r, err := ProfileSolo(mustBuild(t, name, batch), Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func relErr(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	e := (a - b) / b
	if e < 0 {
		return -e
	}
	return e
}

// BenchmarkProfileSolo measures one full offline-profiling pass.
func BenchmarkProfileSolo(b *testing.B) {
	g, err := model.Build(model.Inception, 100)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := ProfileSolo(g, Options{Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

package profiler

import (
	"fmt"
	"time"

	"olympian/internal/graph"
)

// LinearModel predicts node costs for unprofiled batch sizes from profiles
// of a few batch sizes (paper §4.4, Figure 20): per op class, the mean node
// cost is fit linearly in the batch size, as is the total GPU duration D_j.
type LinearModel struct {
	// Model is the DNN the fits belong to.
	Model string

	classFits map[string]linFit
	durFit    linFit
}

// linFit is y = a + m*x by least squares.
type linFit struct {
	a, m float64
}

func (f linFit) at(x float64) float64 { return f.a + f.m*x }

func fitLine(xs, ys []float64) linFit {
	n := float64(len(xs))
	if len(xs) == 1 {
		return linFit{a: ys[0]}
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return linFit{a: sy / n}
	}
	m := (n*sxy - sx*sy) / den
	return linFit{a: (sy - m*sx) / n, m: m}
}

// profiledPoint couples a graph with its profile for fitting.
type profiledPoint struct {
	g *graph.Graph
	r *Result
}

// FitLinearModel fits per-op-class cost lines from two or more profiles of
// the same model at different batch sizes.
func FitLinearModel(points []struct {
	Graph  *graph.Graph
	Result *Result
}) (*LinearModel, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("profiler: linear model needs >=2 profiled batch sizes, got %d", len(points))
	}
	name := points[0].Graph.Model
	pps := make([]profiledPoint, len(points))
	for i, p := range points {
		if p.Graph.Model != name {
			return nil, fmt.Errorf("profiler: mixed models %q and %q in linear fit", name, p.Graph.Model)
		}
		if len(p.Result.NodeCost) != len(p.Graph.Nodes) {
			return nil, fmt.Errorf("profiler: profile/graph mismatch for %s batch %d", name, p.Graph.BatchSize)
		}
		pps[i] = profiledPoint{g: p.Graph, r: p.Result}
	}

	// Per-class mean cost at each profiled batch size.
	classBatch := make(map[string][]float64) // class -> xs
	classCost := make(map[string][]float64)  // class -> mean cost ys
	var durXs, durYs []float64
	for _, pp := range pps {
		sums := make(map[string]float64)
		counts := make(map[string]int)
		for _, n := range pp.g.Nodes {
			if !n.IsGPU() {
				continue
			}
			sums[n.Op] += float64(pp.r.NodeCost[n.ID])
			counts[n.Op]++
		}
		b := float64(pp.g.BatchSize)
		for class, sum := range sums {
			classBatch[class] = append(classBatch[class], b)
			classCost[class] = append(classCost[class], sum/float64(counts[class]))
		}
		durXs = append(durXs, b)
		durYs = append(durYs, float64(pp.r.GPUDuration))
	}
	lm := &LinearModel{Model: name, classFits: make(map[string]linFit, len(classBatch))}
	for class, xs := range classBatch {
		lm.classFits[class] = fitLine(xs, classCost[class])
	}
	lm.durFit = fitLine(durXs, durYs)
	return lm, nil
}

// Predict produces a synthetic profile for g (any batch size of the fitted
// model) without running it: each GPU node is billed its op class's
// predicted mean cost, and D_j comes from the duration fit.
func (lm *LinearModel) Predict(g *graph.Graph) (*Result, error) {
	if g.Model != lm.Model {
		return nil, fmt.Errorf("profiler: linear model for %q cannot predict %q", lm.Model, g.Model)
	}
	b := float64(g.BatchSize)
	res := &Result{
		Model:    g.Model,
		Batch:    g.BatchSize,
		NodeCost: make([]time.Duration, len(g.Nodes)),
	}
	for _, n := range g.Nodes {
		if !n.IsGPU() {
			continue
		}
		fit, ok := lm.classFits[n.Op]
		if !ok {
			return nil, fmt.Errorf("profiler: no cost fit for op class %q", n.Op)
		}
		c := fit.at(b)
		if c < float64(time.Microsecond) {
			c = float64(time.Microsecond)
		}
		res.NodeCost[n.ID] = time.Duration(c)
		res.TotalCost += time.Duration(c)
	}
	d := lm.durFit.at(b)
	if d < float64(time.Millisecond) {
		d = float64(time.Millisecond)
	}
	res.GPUDuration = time.Duration(d)
	return res, nil
}

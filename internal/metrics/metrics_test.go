package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"olympian/internal/overload"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary %+v", s)
	}
	// Sample standard deviation of 1..4 is sqrt(5/3).
	if want := math.Sqrt(5.0 / 3.0); math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("std %v, want %v", s.Std, want)
	}
	if got := s.Spread(); got != 4 {
		t.Fatalf("spread %v", got)
	}
	if got := s.RelStd(); math.Abs(got-s.Std/2.5) > 1e-12 {
		t.Fatalf("rel std %v", got)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Std != 0 {
		t.Fatalf("empty summary %+v", s)
	}
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Std != 0 || s.Min != 7 || s.Max != 7 {
		t.Fatalf("single summary %+v", s)
	}
}

func TestSpreadWithZeroMin(t *testing.T) {
	s := Summarize([]float64{0, 5})
	if !math.IsInf(s.Spread(), 1) {
		t.Fatalf("spread with zero min = %v, want +Inf", s.Spread())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 4 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); q != 2.5 {
		t.Fatalf("median = %v", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("quantile of empty should be NaN")
	}
}

// TestCDFAndFractionBelow checks FractionBelow, the function Fig 4's CDF is
// read through.
func TestCDFAndFractionBelow(t *testing.T) {
	xs := []float64{3, 1, 2}
	if f := FractionBelow(xs, 2.5); math.Abs(f-2.0/3.0) > 1e-12 {
		t.Fatalf("fraction below 2.5 = %v", f)
	}
	if f := FractionBelow(nil, 1); f != 0 {
		t.Fatalf("fraction of empty = %v", f)
	}
}

func TestFinishSetOrderingAndGrouping(t *testing.T) {
	var fs FinishSet
	fs.Add(2, "b", 20*time.Second)
	fs.Add(0, "a", 10*time.Second)
	fs.Add(1, "b", 30*time.Second)
	durs := fs.Durations()
	want := []time.Duration{10 * time.Second, 30 * time.Second, 20 * time.Second}
	for i := range want {
		if durs[i] != want[i] {
			t.Fatalf("durations %v", durs)
		}
	}
	byModel := fs.ByModel()
	if len(byModel["b"]) != 2 || len(byModel["a"]) != 1 {
		t.Fatalf("byModel %v", byModel)
	}
	if s := fs.Summary(); s.N != 3 || s.Max != 30 {
		t.Fatalf("summary %+v", s)
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := FormatSeconds(1500 * time.Millisecond); got != "1.50s" {
		t.Fatalf("FormatSeconds = %q", got)
	}
}

// Property: Quantile is monotone in q and bounded by min/max.
func TestPropertyQuantileMonotone(t *testing.T) {
	prop := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		sorted := append([]float64(nil), raw...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(raw, q)
			if v < prev-1e-9 || v < sorted[0]-1e-9 || v > sorted[len(sorted)-1]+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Summarize mean is bounded by min and max.
func TestPropertySummaryBounds(t *testing.T) {
	prop := func(raw []float64) bool {
		for _, x := range raw {
			// Skip values whose sums overflow float64.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
				return true
			}
		}
		s := Summarize(raw)
		if s.N == 0 {
			return true
		}
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9 && s.Std >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDegradedMergeAndString(t *testing.T) {
	var d Degraded
	if d.Any() {
		t.Fatal("zero Degraded reports Any")
	}
	if d.String() != "clean" {
		t.Fatalf("zero Degraded renders %q", d.String())
	}
	d.Merge(Degraded{KernelFaults: 2, Drops: 1})
	d.Merge(Degraded{KernelFaults: 1, BatchRetries: 3, DeadlineMisses: 4})
	want := Degraded{KernelFaults: 3, BatchRetries: 3, Drops: 1, DeadlineMisses: 4}
	if d != want {
		t.Fatalf("merged %+v, want %+v", d, want)
	}
	if !d.Any() {
		t.Fatal("non-zero Degraded reports clean")
	}
	s := d.String()
	for _, frag := range []string{"kernelFaults=3", "batchRetries=3", "drops=1", "deadlineMisses=4"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() = %q missing %q", s, frag)
		}
	}
	if strings.Contains(s, "stalls") {
		t.Fatalf("String() = %q renders zero field", s)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	// A single sample is every quantile.
	one := []float64{7}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := Quantile(one, q); got != 7 {
			t.Fatalf("quantile %v of single sample = %v, want 7", q, got)
		}
	}
	// Duplicate-heavy samples: interpolation between equal neighbors must
	// return the duplicated value exactly.
	dups := []float64{5, 5, 5, 5, 9}
	if got := Quantile(dups, 0.5); got != 5 {
		t.Fatalf("median of duplicate-heavy sample = %v, want 5", got)
	}
	if got := Quantile(dups, 1); got != 9 {
		t.Fatalf("max of duplicate-heavy sample = %v, want 9", got)
	}
	// Out-of-range q clamps to the extremes.
	if got := Quantile(dups, -0.5); got != 5 {
		t.Fatalf("q<0 = %v, want min", got)
	}
	if got := Quantile(dups, 1.5); got != 9 {
		t.Fatalf("q>1 = %v, want max", got)
	}
	// Interpolation lands between distinct neighbors.
	if got := Quantile([]float64{0, 10}, 0.25); got != 2.5 {
		t.Fatalf("q0.25 of {0,10} = %v, want 2.5", got)
	}
}

func TestClassCountsMergeAndAny(t *testing.T) {
	var c ClassCounts
	if c.Any() {
		t.Fatal("zero ClassCounts reports Any")
	}
	c.Merge(ClassCounts{Submitted: 4, Completed: 2, Shed: 1})
	c.Merge(ClassCounts{Submitted: 1, Expired: 1, DeadlineMisses: 3})
	want := ClassCounts{Submitted: 5, Completed: 2, Shed: 1, Expired: 1, DeadlineMisses: 3}
	if c != want {
		t.Fatalf("merged %+v, want %+v", c, want)
	}
	if !c.Any() {
		t.Fatal("non-zero ClassCounts reports empty")
	}
}

func TestByClassMergeAndDegradedComparability(t *testing.T) {
	a := Degraded{ByClass: ByClass{
		overload.Batch:       {Submitted: 3, Shed: 2},
		overload.Interactive: {Submitted: 1, Completed: 1},
	}}
	b := Degraded{ByClass: ByClass{
		overload.Batch:       {Submitted: 1, Completed: 1},
		overload.Interactive: {Submitted: 2, DeadlineMisses: 1},
	}}
	a.Merge(b)
	if got := a.ByClass[overload.Batch]; got != (ClassCounts{Submitted: 4, Completed: 1, Shed: 2}) {
		t.Fatalf("batch class merged to %+v", got)
	}
	if got := a.ByClass[overload.Interactive]; got != (ClassCounts{Submitted: 3, Completed: 1, DeadlineMisses: 1}) {
		t.Fatalf("interactive class merged to %+v", got)
	}
	// Degraded must stay comparable with ==: determinism probes depend on it.
	c := a
	if c != a {
		t.Fatal("Degraded copies with identical ByClass compare unequal")
	}
	c.ByClass[overload.Batch].Shed++
	if c == a {
		t.Fatal("Degraded copies with different ByClass compare equal")
	}
}

func TestDegradedStringRendersClassesAndNewCounters(t *testing.T) {
	d := Degraded{
		RetryDenied:    2,
		AdmissionSheds: 5,
		Evictions:      1,
		Canceled:       3,
	}
	d.ByClass[overload.Interactive] = ClassCounts{Submitted: 10, Completed: 8, Shed: 1, DeadlineMisses: 1}
	s := d.String()
	for _, frag := range []string{
		"retryDenied=2", "admissionSheds=5", "evictions=1", "canceled=3",
		"interactive[done=8 shed=1 expired=0 failed=0 miss=1 of 10]",
	} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() = %q missing %q", s, frag)
		}
	}
	if strings.Contains(s, "batch[") {
		t.Fatalf("String() = %q renders the traffic-free batch class", s)
	}
}

// Package metrics provides the summary statistics and recording structures
// the evaluation harness uses: finish-time records, per-quantum GPU
// durations, scheduling-interval logs, CDFs, and utilization aggregation.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"olympian/internal/overload"
)

// Summary holds basic descriptive statistics.
type Summary struct {
	N    int
	Mean float64
	Std  float64
	Min  float64
	Max  float64
}

// Summarize computes descriptive statistics of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// RelStd returns the standard deviation as a fraction of the mean (the
// paper reports per-quantum duration spread this way, e.g. "4.9% to 10.1%").
func (s Summary) RelStd() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.Std / s.Mean
}

// Spread returns Max/Min — the paper's headline unpredictability metric
// ("finish times can differ by up to 1.7x").
func (s Summary) Spread() float64 {
	if s.Min == 0 {
		return math.Inf(1)
	}
	return s.Max / s.Min
}

// DurationsToSeconds converts durations to float seconds.
func DurationsToSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// DurationsToMicros converts durations to float microseconds.
func DurationsToMicros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// SummarizeDurations summarizes durations in seconds.
func SummarizeDurations(ds []time.Duration) Summary {
	return Summarize(DurationsToSeconds(ds))
}

// Quantile returns the q-quantile (0..1) of xs by linear interpolation.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Percentiles summarises a latency sample by its p50/p95/p99 quantiles (in
// the sample's unit, conventionally seconds). The zero value means "no
// samples".
type Percentiles struct {
	N             int
	P50, P95, P99 float64
}

// Ok reports whether the summary holds any samples. Report call sites must
// branch on it before forming ratios (p99/p50 of an empty summary is 0/0).
func (p Percentiles) Ok() bool { return p.N > 0 }

// String renders the percentiles in milliseconds.
func (p Percentiles) String() string {
	if p.N == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d p50=%.1fms p95=%.1fms p99=%.1fms",
		p.N, p.P50*1e3, p.P95*1e3, p.P99*1e3)
}

// TokenPercentiles summarises the two token-level latency metrics of an
// autoregressive serving run: time-to-first-token (arrival to first emitted
// token — prefill queueing plus prefill plus any KV-transfer wait) and
// time-per-output-token (mean inter-token gap per request over its delivered
// tokens). Both in seconds; zero values mean "no samples".
type TokenPercentiles struct {
	TTFT Percentiles
	TPOT Percentiles
}

// String renders both metrics in milliseconds.
func (tp TokenPercentiles) String() string {
	return fmt.Sprintf("ttft[%s] tpot[%s]", tp.TTFT, tp.TPOT)
}

// FractionBelow returns the fraction of xs strictly below threshold.
func FractionBelow(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x < threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// ClassCounts tallies one priority class's outcomes at the serving layer.
type ClassCounts struct {
	// Submitted counts arrivals of the class.
	Submitted int
	// Completed counts successful completions (the class's goodput).
	Completed int
	// Shed counts requests dropped by admission control: limiter sheds,
	// queue-full drops, and priority evictions alike.
	Shed int
	// Expired counts requests dropped in queue past their deadline.
	Expired int
	// Failed counts requests that terminated with a hard failure: drained on
	// a device crash past the failover cap, aborted mid-execution, or
	// cancelled. Together with the other terminal counters it completes the
	// conservation identity Submitted = Completed + Shed + Expired + Failed
	// once a run quiesces.
	Failed int
	// DeadlineMisses counts requests served after their deadline.
	DeadlineMisses int
}

// Any reports whether the class saw any traffic.
func (c ClassCounts) Any() bool { return c != ClassCounts{} }

// Merge adds o's tallies into c.
func (c *ClassCounts) Merge(o ClassCounts) {
	c.Submitted += o.Submitted
	c.Completed += o.Completed
	c.Shed += o.Shed
	c.Expired += o.Expired
	c.Failed += o.Failed
	c.DeadlineMisses += o.DeadlineMisses
}

// ByClass indexes ClassCounts by overload.Class. It is a fixed-size array
// so Degraded stays comparable (determinism probes use ==).
type ByClass [overload.NumClasses]ClassCounts

// Merge adds o's per-class tallies into b.
func (b *ByClass) Merge(o ByClass) {
	for i := range b {
		b[i].Merge(o[i])
	}
}

// Degraded tallies a run's degraded-mode events: the faults injected into
// it, the recovery work they forced, and the requests that were shed or
// expired instead of served. A fault-free run reports the zero value.
type Degraded struct {
	// Injected faults (from the fault-injection plane).
	KernelFaults int
	DeviceStalls int
	JobAborts    int
	// DeviceCrashes and DeviceRevives count permanent-failure events and
	// completed restarts (warm-up done); CrashedBatches counts batches whose
	// execution was cut short by a crash mid-flight.
	DeviceCrashes  int
	DeviceRevives  int
	CrashedBatches int
	// Recovery actions.
	KernelRetries int
	BatchRetries  int
	BatchFailures int
	// RetryDenied counts retries refused by an exhausted retry budget.
	RetryDenied int
	// SLO-aware shedding at the serving layer.
	Drops          int // rejected at admission (bounded queue full)
	AdmissionSheds int // rejected by the AIMD adaptive admission limiter
	Evictions      int // queued low-priority work displaced by high-priority arrivals
	Expired        int // dropped in queue past their deadline
	DeadlineMisses int // served, but after their deadline
	Canceled       int // hedge losers cancelled after the duplicate won
	// ByClass breaks serving outcomes down per priority class.
	ByClass ByClass
}

// Merge adds o's tallies into d.
func (d *Degraded) Merge(o Degraded) {
	d.KernelFaults += o.KernelFaults
	d.DeviceStalls += o.DeviceStalls
	d.JobAborts += o.JobAborts
	d.DeviceCrashes += o.DeviceCrashes
	d.DeviceRevives += o.DeviceRevives
	d.CrashedBatches += o.CrashedBatches
	d.KernelRetries += o.KernelRetries
	d.BatchRetries += o.BatchRetries
	d.BatchFailures += o.BatchFailures
	d.RetryDenied += o.RetryDenied
	d.Drops += o.Drops
	d.AdmissionSheds += o.AdmissionSheds
	d.Evictions += o.Evictions
	d.Expired += o.Expired
	d.DeadlineMisses += o.DeadlineMisses
	d.Canceled += o.Canceled
	d.ByClass.Merge(o.ByClass)
}

// Any reports whether any degraded-mode event occurred.
func (d Degraded) Any() bool { return d != Degraded{} }

// String renders the non-zero tallies compactly.
func (d Degraded) String() string {
	if !d.Any() {
		return "clean"
	}
	parts := make([]string, 0, 16)
	add := func(name string, v int) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name, v))
		}
	}
	add("kernelFaults", d.KernelFaults)
	add("stalls", d.DeviceStalls)
	add("aborts", d.JobAborts)
	add("crashes", d.DeviceCrashes)
	add("revives", d.DeviceRevives)
	add("crashedBatches", d.CrashedBatches)
	add("kernelRetries", d.KernelRetries)
	add("batchRetries", d.BatchRetries)
	add("batchFailures", d.BatchFailures)
	add("retryDenied", d.RetryDenied)
	add("drops", d.Drops)
	add("admissionSheds", d.AdmissionSheds)
	add("evictions", d.Evictions)
	add("expired", d.Expired)
	add("deadlineMisses", d.DeadlineMisses)
	add("canceled", d.Canceled)
	for cls := range d.ByClass {
		c := d.ByClass[cls]
		if c.Any() {
			parts = append(parts, fmt.Sprintf("%s[done=%d shed=%d expired=%d failed=%d miss=%d of %d]",
				overload.Class(cls), c.Completed, c.Shed, c.Expired, c.Failed, c.DeadlineMisses, c.Submitted))
		}
	}
	return strings.Join(parts, " ")
}

// Availability summarizes one device's crash-recovery behaviour over a run.
// It is comparable (determinism probes use ==). The zero value means the
// device never crashed.
type Availability struct {
	// Crashes counts crash events; Revives counts completed restarts.
	Crashes int
	Revives int
	// Downtime is the total unschedulable time: every closed outage plus the
	// open one at the end of the run.
	Downtime time.Duration
	// MTTR is the mean time to recovery over completed restarts (crash to
	// schedulable again, including the recovery delay and warm-up copy).
	MTTR time.Duration
	// Frac is the availability fraction: 1 - Downtime/elapsed.
	Frac float64
}

// String renders availability compactly.
func (a Availability) String() string {
	if a.Crashes == 0 {
		return "up"
	}
	return fmt.Sprintf("crashes=%d revives=%d down=%s mttr=%s avail=%.4f",
		a.Crashes, a.Revives, a.Downtime, a.MTTR, a.Frac)
}

// FinishRecord is one client's completion time.
type FinishRecord struct {
	Client int
	Model  string
	Finish time.Duration
}

// FinishSet aggregates per-client finish times for one run.
type FinishSet struct {
	Label   string
	Records []FinishRecord
}

// Add appends a record.
func (f *FinishSet) Add(client int, model string, finish time.Duration) {
	f.Records = append(f.Records, FinishRecord{Client: client, Model: model, Finish: finish})
}

// Durations returns the finish times in client order.
func (f *FinishSet) Durations() []time.Duration {
	sorted := append([]FinishRecord(nil), f.Records...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Client < sorted[j].Client })
	out := make([]time.Duration, len(sorted))
	for i, r := range sorted {
		out[i] = r.Finish
	}
	return out
}

// Summary summarizes the finish times in seconds.
func (f *FinishSet) Summary() Summary { return SummarizeDurations(f.Durations()) }

// ByModel groups finish durations by model name.
func (f *FinishSet) ByModel() map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	for _, r := range f.Records {
		out[r.Model] = append(out[r.Model], r.Finish)
	}
	return out
}

// FormatSeconds renders a duration in seconds with two decimals, the
// paper's finish-time format.
func FormatSeconds(d time.Duration) string { return fmt.Sprintf("%.2fs", d.Seconds()) }

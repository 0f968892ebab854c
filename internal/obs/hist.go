package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram bucketing: fixed log-spaced boundaries shared by every histogram
// in the process, HDR-style. Bucket i covers observations up to
// 1µs × 2^(i/4) for i in 0..numHistBuckets-1 (four sub-buckets per octave,
// ≤ ~19% relative quantile error), spanning 1µs to ~58 minutes; a final
// overflow bucket catches everything beyond. Because the boundaries are a
// compile-time property rather than per-series configuration, histograms
// from different shard-child registries merge exactly (bucket counts add),
// and same-seed runs render byte-identical exposition regardless of which
// engine recorded them.
const (
	numHistBuckets = 128
	histSubBuckets = 4 // buckets per doubling
)

// HistBucketCount is the number of bucket slots every histogram carries,
// including the trailing overflow bucket. Bucket snapshots (Buckets) and the
// telemetry ring-buffer time series share this shape.
const HistBucketCount = numHistBuckets + 1

// histBoundsNs holds the bucket upper bounds in integer nanoseconds,
// computed once at init. histBoundsSec holds the same bounds in seconds for
// exposition (`le` labels) and quantile interpolation.
var (
	histBoundsNs  [numHistBuckets]int64
	histBoundsSec [numHistBuckets]float64
)

func init() {
	for i := range histBoundsNs {
		ns := 1000 * math.Exp2(float64(i)/histSubBuckets)
		histBoundsNs[i] = int64(math.Round(ns))
		histBoundsSec[i] = float64(histBoundsNs[i]) / 1e9
	}
}

// histBucket returns the index of the bucket an observation of d falls in
// (numHistBuckets = overflow). A coarse log2 guess from the bit length lands
// within one octave; the linear fix-up walks at most histSubBuckets entries.
func histBucket(d time.Duration) int {
	ns := int64(d)
	if ns <= histBoundsNs[0] {
		return 0
	}
	if ns > histBoundsNs[numHistBuckets-1] {
		return numHistBuckets
	}
	// bits.Len-style guess: bucket index grows histSubBuckets per doubling
	// above 1µs. The guess's upper bound never exceeds ns (floor division,
	// floor log2), so the linear walk only moves up, at most one octave.
	i := 0
	for v := ns / 1000; v > 1; v >>= 1 {
		i += histSubBuckets
	}
	for histBoundsNs[i] < ns {
		i++
	}
	return i
}

// Hist is one histogram series: fixed log-bucketed counts plus an exact sum
// kept in integer nanoseconds. All fields are atomics, so concurrent
// Observe/Absorb (the HTTP handler's registry) do not race; the integer sum
// makes the rendered `_sum` independent of observation and merge order —
// float accumulation would not be. A nil *Hist is the disabled path: every
// method is a no-op returning zeros.
type Hist struct {
	labels string
	counts [numHistBuckets + 1]atomic.Uint64
	count  atomic.Uint64
	sumNs  atomic.Int64
	// touched marks a series ever observed, mirroring Series.touched.
	touched atomic.Bool
}

// NewHist returns a standalone histogram not registered anywhere. Layers use
// it to keep bounded-memory latency summaries (slim-mode Stats) even when
// observability is off.
func NewHist() *Hist { return &Hist{} }

// EnsureHist returns h unchanged when a registry provided it, or a standalone
// histogram when recording is off (Registry.Histogram on a nil registry
// returns nil), so layers keep bounded-memory latency summaries for Stats
// either way and the observation sites stay unconditional.
func EnsureHist(h *Hist) *Hist {
	if h != nil {
		return h
	}
	return NewHist()
}

// Observe records one duration sample.
func (h *Hist) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.touched.Store(true)
	h.counts[histBucket(d)].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// Count returns the total number of observations.
func (h *Hist) Count() int {
	if h == nil {
		return 0
	}
	return int(h.count.Load())
}

// SumNanos returns the exact sum of observations in integer nanoseconds —
// the merge-order-independent accumulator telemetry snapshots carry.
func (h *Hist) SumNanos() int64 {
	if h == nil {
		return 0
	}
	return h.sumNs.Load()
}

// SumSeconds returns the exact sum of observations in seconds.
func (h *Hist) SumSeconds() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sumNs.Load()) / 1e9
}

// Buckets copies the per-bucket (non-cumulative) counts. Index
// numHistBuckets is the overflow bucket.
func (h *Hist) Buckets() [numHistBuckets + 1]uint64 {
	var out [numHistBuckets + 1]uint64
	if h == nil {
		return out
	}
	for i := range out {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0..1) in seconds by locating the bucket
// holding the target rank and interpolating linearly across it. The estimate
// is a pure function of the bucket counts, so merged children and a shared
// recorder agree exactly. Returns 0 when the histogram is empty.
func (h *Hist) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	var counts [numHistBuckets + 1]uint64
	total := uint64(0)
	for i := range counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return histQuantile(counts, total, q)
}

// QuantileOfBuckets computes the shared quantile estimate over a raw
// (non-cumulative) bucket-count snapshot — the same function Hist.Quantile
// uses, exported so telemetry can ask for quantiles over windowed snapshot
// deltas and get exactly the estimator the whole-run histogram would give.
func QuantileOfBuckets(counts [HistBucketCount]uint64, q float64) float64 {
	total := uint64(0)
	for _, c := range counts {
		total += c
	}
	return histQuantile(counts, total, q)
}

// HistCountLE counts the observations in a bucket snapshot that certainly
// lie at or below the given threshold in seconds: the sum of every bucket
// whose upper bound is ≤ the threshold. SLO evaluators use it as the "good
// events" numerator for latency-threshold SLIs.
func HistCountLE(counts [HistBucketCount]uint64, seconds float64) uint64 {
	good := uint64(0)
	for i := 0; i < numHistBuckets && histBoundsSec[i] <= seconds; i++ {
		good += counts[i]
	}
	return good
}

// histQuantile is the shared estimator over a bucket snapshot; telemetry
// ring windows reuse it so windowed quantiles and whole-run quantiles are
// the same function.
func histQuantile(counts [numHistBuckets + 1]uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank in 1..total: the ceil keeps q=0 at the first sample and q=1 at
	// the last.
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	cum := uint64(0)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo := 0.0
			if i > 0 {
				lo = histBoundsSec[i-1]
			}
			hi := lo
			if i < numHistBuckets {
				hi = histBoundsSec[i]
			}
			// Interpolate by the rank's position within the bucket.
			frac := (float64(rank-cum) - 0.5) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return histBoundsSec[numHistBuckets-1]
}

// Percentiles summarises the histogram as p50/p95/p99 (seconds), the shape
// experiment reports carry, in bounded memory; the bucket scheme caps
// relative error at ~19%.
func (h *Hist) Percentiles() (n int, p50, p95, p99 float64) {
	if h == nil || h.Count() == 0 {
		return 0, 0, 0, 0
	}
	var counts [numHistBuckets + 1]uint64
	total := uint64(0)
	for i := range counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return int(total),
		histQuantile(counts, total, 0.50),
		histQuantile(counts, total, 0.95),
		histQuantile(counts, total, 0.99)
}

// absorb adds other's buckets, count, and sum into h. Addition is exact
// (integer counts, integer nanoseconds), so absorbing shard children in any
// grouping reproduces the histogram a single shared recorder would hold.
func (h *Hist) absorb(other *Hist) {
	if h == nil || other == nil {
		return
	}
	if !other.touched.Load() {
		return
	}
	h.touched.Store(true)
	for i := range h.counts {
		if c := other.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(other.count.Load())
	h.sumNs.Add(other.sumNs.Load())
}

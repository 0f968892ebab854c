package trace

import (
	"io"
	"testing"

	"olympian/internal/obs"
	"olympian/internal/sim"
)

// syntheticTrace returns n events, three spans to each instant, spread
// over a cluster process and eight devices.
func syntheticTrace(n int) *obs.Trace {
	tr := &obs.Trace{}
	for i := 0; i < n; i++ {
		at := sim.Time(i) * 1733
		dev := int16(i%9) - 1
		if i%4 == 3 {
			tr.Instants = append(tr.Instants, obs.Instant{
				Req: int32(i / 4), Class: int8(i % 2), Device: dev, Layer: obs.LayerCluster, Name: "route", At: at,
			})
			continue
		}
		tr.Spans = append(tr.Spans, obs.Span{
			Req: int32(i / 4), Seq: uint32(i % 4), Class: int8(i % 2), Device: dev,
			Layer: obs.Layer(i % 4), Name: "queue", Start: at, End: at + 25_000, Arg: int64(i),
		})
	}
	return tr
}

// TestRenderAllocsFlat pins that rendering allocates a small constant,
// not per event: a 100-event and a 100k-event trace both stay under the
// same bound.
func TestRenderAllocsFlat(t *testing.T) {
	const bound = 16
	burns := map[string][]float64{"latency/fast": {0.5, 1.25, 12}}
	at := tickTimes(0, 5e6, 0)
	for _, n := range []int{100, 100_000} {
		tr := syntheticTrace(n)
		allocs := testing.AllocsPerRun(5, func() {
			if err := writeLifecycle(io.Discard, tr, burns, at); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > bound {
			t.Errorf("rendering %d events: %v allocs, want <= %d", n, allocs, bound)
		}
	}
}

// BenchmarkWriteLifecycle measures rendering a 100k-event lifecycle trace
// (informational; not asserted in CI).
func BenchmarkWriteLifecycle(b *testing.B) {
	tr := syntheticTrace(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteLifecycleTimeline(io.Discard, tr, nil); err != nil {
			b.Fatal(err)
		}
	}
}

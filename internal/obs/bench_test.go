package obs

import "testing"

// BenchmarkObsDisabled measures the fully disabled path — the nil recorder
// and nil metric series every layer calls when tracing is off. The contract
// (guarded by CI) is 0 allocs/op and single-digit ns/op so observability
// costs nothing unless switched on.
func BenchmarkObsDisabled(b *testing.B) {
	var r *Recorder
	reg := r.Registry()
	c := reg.Counter("olympian_bench_total", "")
	g := reg.Gauge("olympian_bench", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := r.StartSpan(LayerServing, "queue", i, 0, 0, 0)
		r.Instant(LayerGPU, "stall", i, 0, 0, 0)
		r.EndSpan(id)
		c.Inc()
		g.Set(1)
	}
}

// BenchmarkObsEnabled tracks the enabled-path cost for the overhead budget
// in DESIGN.md (informational; not asserted in CI).
func BenchmarkObsEnabled(b *testing.B) {
	r := NewRecorder()
	c := r.Registry().Counter("olympian_bench_total", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := r.StartSpan(LayerServing, "queue", i%64, 0, 0, 0)
		r.EndSpan(id)
		c.Inc()
	}
}

// TestDisabledPathAllocs pins the 0 allocs/op contract in the ordinary test
// suite too, so a regression fails `go test` and not just the CI bench step.
func TestDisabledPathAllocs(t *testing.T) {
	var r *Recorder
	c := r.Registry().Counter("x_total", "")
	var tally int
	allocs := testing.AllocsPerRun(1000, func() {
		id := r.StartSpan(LayerExecutor, "job", 7, 1, 0, 3)
		r.Instant(LayerCluster, "route", 7, 1, 0, 0)
		r.EndSpan(id)
		c.Inc()
		r.Registry().CounterView("y_total", "", &tally, "device", "0")
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates: %v allocs/op", allocs)
	}
}

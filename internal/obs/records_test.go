package obs

import (
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"olympian/internal/sim"
)

// TestRecordingBytesBounded: a shard child writes each record once into
// blocks that never move, so recording allocates its records' bytes plus
// at most one partly filled block per kind and the block index — not the
// multiples a growing slice copies through.
func TestRecordingBytesBounded(t *testing.T) {
	const nSpans, nPoints = 100_000, 20_000
	r := NewRecorder().NewChild()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < nSpans/2; i++ {
		id := r.StartSpan(LayerServing, "queue", i, 1, 0, 0)
		r.EndSpan(id)
		r.Span(LayerGPU, "kernel", i, 1, 0, sim.Time(i), sim.Time(i+1), 0)
		if i%5 < 2 {
			r.Instant(LayerCluster, "route", i, 1, NoDevice, 0)
		}
	}
	runtime.ReadMemStats(&after)
	if n := len(r.Spans()); n != nSpans {
		t.Fatalf("recorded %d spans, want %d", n, nSpans)
	}
	recBytes := float64(nSpans*unsafe.Sizeof(Span{}) + nPoints*unsafe.Sizeof(Instant{}))
	got := float64(after.TotalAlloc - before.TotalAlloc)
	bound := 1.05*recBytes + 64<<10
	t.Logf("recording %d spans and %d instants allocated %.0f B for %.0f B of records (%.3f×); bound %.0f B",
		nSpans, nPoints, got, recBytes, got/recBytes, bound)
	if got > bound {
		t.Fatalf("recording allocated %.0f B, over the bound %.0f B", got, bound)
	}
}

// mergedRecorder merges two shard children holding only closed spans.
func mergedRecorder(t *testing.T) (*Recorder, []*Recorder) {
	t.Helper()
	parent := NewRecorder()
	children := []*Recorder{parent.NewChild(), parent.NewChild()}
	for c, ch := range children {
		env := sim.NewEnv(int64(c))
		ch.Attach(env)
		env.Go("w", func(p *sim.Proc) {
			for req := 0; req < 3000; req++ {
				id := ch.StartSpan(LayerServing, "queue", req, 1, c, 0)
				p.Sleep(time.Microsecond)
				ch.EndSpan(id)
				ch.Instant(LayerServing, "tick", req, 1, c, 0)
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		env.Shutdown()
	}
	parent.Merge("run:merged", children)
	return parent, children
}

// TestTraceSharesMergedSpans: a merged parent holds its records in one
// exactly sized piece, so Trace and Spans share them instead of copying,
// clipped so appending to a snapshot cannot reach the recorder; Merge has
// released the children's records.
func TestTraceSharesMergedSpans(t *testing.T) {
	parent, children := mergedRecorder(t)
	tr := parent.Trace()
	if len(tr.Spans) != 6000 || len(tr.Instants) != 6001 {
		t.Fatalf("merged trace holds %d spans and %d instants, want 6000 and 6001", len(tr.Spans), len(tr.Instants))
	}
	if &tr.Spans[0] != &parent.Spans()[0] || &tr.Spans[0] != &parent.Trace().Spans[0] {
		t.Error("Trace or Spans copied the merged spans")
	}
	if cap(tr.Spans) != len(tr.Spans) || cap(tr.Instants) != len(tr.Instants) {
		t.Error("shared snapshot is not clipped to its length")
	}
	if allocs := testing.AllocsPerRun(10, func() { parent.Trace() }); allocs != 1 {
		t.Errorf("Trace of a merged recorder made %v allocations, want 1 (the Trace header)", allocs)
	}
	for i, ch := range children {
		if !reflect.ValueOf(ch.spans).IsZero() || !reflect.ValueOf(ch.points).IsZero() {
			t.Errorf("child %d still holds records after Merge", i)
		}
	}
}

// TestTraceOpenSpanSnapshot: a span open at Trace() is clamped to the
// horizon in that snapshot; a later EndSpan gives the recorder its true End
// and leaves the first snapshot as it was.
func TestTraceOpenSpanSnapshot(t *testing.T) {
	r := NewRecorder()
	env := sim.NewEnv(1)
	defer env.Shutdown()
	r.Bind(env, "run")
	var id SpanID
	var first *Trace
	env.Go("w", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		id = r.StartSpan(LayerServing, "queue", 0, 1, 0, 0)
		p.Sleep(time.Millisecond)
		r.Instant(LayerServing, "tick", 0, 1, 0, 0)
		first = r.Trace()
		p.Sleep(time.Millisecond)
		r.EndSpan(id)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	ms := sim.Time(time.Millisecond)
	if got := first.Spans[id-1]; got.Start != ms || got.End != 2*ms {
		t.Errorf("open span in the first snapshot %+v, want clamped to the 2ms horizon", got)
	}
	if got := r.Spans()[id-1].End; got != 3*ms {
		t.Errorf("ended span End %d, want 3ms", got)
	}
	if got := r.Trace().Spans[id-1].End; got != 3*ms {
		t.Errorf("later snapshot End %d, want 3ms", got)
	}
}

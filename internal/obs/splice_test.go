package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"olympian/internal/sim"
)

// spliceWorkload records one synthetic run against env: spans (one left
// open), instants, and some metrics. i varies the shape per run.
func spliceWorkload(r *Recorder, env *sim.Env, i int) {
	c := r.Registry().Counter("test_ops_total", "Ops.", "run", "all")
	g := r.Registry().Gauge("test_level", "Level.", "run", "all")
	env.Go("w", func(p *sim.Proc) {
		for req := 0; req <= i; req++ {
			id := r.StartSpan(LayerServing, "queue", req, 1, 0, int64(i))
			p.Sleep(time.Duration(i+1) * time.Millisecond)
			r.EndSpan(id)
			r.Instant(LayerServing, "tick", req, 1, 0, int64(req))
			c.Inc()
		}
		g.Set(float64(i + 1))
		r.StartSpan(LayerGPU, "open", NoReq, NoClass, 0, 0) // left open
	})
	if err := env.Run(); err != nil {
		panic(err)
	}
	env.Shutdown()
}

// TestSpliceMatchesSerialBind: recording runs into private children and
// splicing them in order must reproduce the serial shared-recorder trace
// and metrics byte-for-byte — the contract the parallel RunMany path
// relies on.
func TestSpliceMatchesSerialBind(t *testing.T) {
	const runs = 3
	serial := NewRecorder()
	serial.MuteLayer(LayerExecutor)
	for i := 0; i < runs; i++ {
		env := sim.NewEnv(int64(i))
		serial.Bind(env, fmt.Sprintf("run:%d", i))
		spliceWorkload(serial, env, i)
	}

	parent := NewRecorder()
	parent.MuteLayer(LayerExecutor)
	children := make([]*Recorder, runs)
	for i := 0; i < runs; i++ {
		children[i] = parent.NewChild()
		env := sim.NewEnv(int64(i))
		children[i].Bind(env, fmt.Sprintf("run:%d", i))
		spliceWorkload(children[i], env, i)
	}
	for _, c := range children {
		parent.Splice(c)
	}

	if !reflect.DeepEqual(serial.Trace(), parent.Trace()) {
		t.Errorf("spliced trace differs from serial trace\nserial spans: %+v\nspliced spans: %+v",
			serial.Trace().Spans, parent.Trace().Spans)
	}
	var a, b bytes.Buffer
	if err := serial.Registry().WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := parent.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("spliced metrics differ from serial:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestMergeDeterministic: merging concurrent shard children is a pure
// function of their contents — same children, same merged trace — and
// colliding request IDs across children get disjoint span sequence numbers.
func TestMergeDeterministic(t *testing.T) {
	build := func() []*Recorder {
		parent := NewRecorder()
		children := make([]*Recorder, 2)
		for c := range children {
			children[c] = parent.NewChild()
			env := sim.NewEnv(int64(c))
			children[c].Attach(env)
			// Both children record request 0 — the cross-shard collision.
			spliceWorkload(children[c], env, 0)
		}
		return children
	}
	merge := func(children []*Recorder) *Recorder {
		parent := NewRecorder()
		parent.Merge("run:sharded", children)
		return parent
	}
	m1, m2 := merge(build()), merge(build())
	if !reflect.DeepEqual(m1.Trace(), m2.Trace()) {
		t.Error("merged traces differ across identical merges")
	}
	seen := map[[2]int64]bool{}
	for _, s := range m1.Trace().Spans {
		key := [2]int64{int64(s.Req), int64(s.Seq)}
		if s.Req >= 0 && seen[key] {
			t.Fatalf("duplicate span identity after merge: req=%d seq=%d", s.Req, s.Seq)
		}
		seen[key] = true
	}
	if m1.Trace().Instants[0].Name != "run:sharded" {
		t.Fatalf("merge boundary instant missing, got %+v", m1.Trace().Instants[0])
	}
}

// TestAbsorbRules: counters add, set gauges overwrite, untouched gauges
// neither overwrite nor vanish (they register at zero like the shared path).
func TestAbsorbRules(t *testing.T) {
	parent := NewRegistry()
	parent.Counter("c_total", "c").Add(5)
	parent.Gauge("g", "g").Set(3)

	child := NewRegistry()
	child.Counter("c_total", "c").Add(2)
	child.Gauge("g", "g")             // registered, never set
	child.Gauge("h", "h")             // new, untouched: must register at 0
	child.Gauge("set_g", "sg").Set(9) // touched

	parent.Absorb(child)
	snap := parent.Snapshot()
	if snap["c_total"] != 7 {
		t.Errorf("counter absorb: got %v, want 7", snap["c_total"])
	}
	if snap["g"] != 3 {
		t.Errorf("untouched child gauge clobbered parent: got %v", snap["g"])
	}
	if v, ok := snap["h"]; !ok || v != 0 {
		t.Errorf("untouched new gauge not registered at zero: %v %v", v, ok)
	}
	if snap["set_g"] != 9 {
		t.Errorf("set gauge: got %v, want 9", snap["set_g"])
	}
}

// TestCounterView: a view reads its tally live through every reader, sums
// with further sources registered under the same labels (and with anything
// absorbed into it), and absorbs into a parent as a plain counter value.
func TestCounterView(t *testing.T) {
	var a, b int
	child := NewRegistry()
	child.CounterView("v_total", "v", &a, "d", "0")
	a = 3
	if got := child.Snapshot()[`v_total{d="0"}`]; got != 3 {
		t.Fatalf("view value %v, want 3", got)
	}
	child.CounterView("v_total", "v", &b, "d", "0")
	b = 4
	var seen float64
	child.VisitScalars(func(name, labels string, counter bool, v float64, _ bool) {
		if !counter {
			t.Errorf("%s%s visited as a gauge", name, labels)
		}
		seen = v
	})
	if seen != 7 {
		t.Fatalf("VisitScalars read %v, want the summed sources 7", seen)
	}
	var prom bytes.Buffer
	if err := child.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if want := "# HELP v_total v\n# TYPE v_total counter\nv_total{d=\"0\"} 7\n"; prom.String() != want {
		t.Fatalf("exposition %q, want %q", prom.String(), want)
	}

	parent := NewRegistry()
	parent.Counter("v_total", "v", "d", "0").Add(1)
	parent.Absorb(child)
	a, b = 100, 100 // the parent holds the absorbed value, not the view
	if got := parent.Snapshot()[`v_total{d="0"}`]; got != 8 {
		t.Fatalf("absorbed view %v, want 1+7", got)
	}
	var c int
	parent.CounterView("v_total", "v", &c, "d", "0")
	c = 2
	if got := parent.Snapshot()[`v_total{d="0"}`]; got != 10 {
		t.Fatalf("view over an absorbed series %v, want 8+2", got)
	}

	var nilReg *Registry
	nilReg.CounterView("v_total", "v", &a) // no-op
}

// TestMergeOrder pins the exact merged sequence, not just its
// determinism: records interleave by (time, child index, record index),
// a retroactive span lands by its start time ahead of spans its child
// recorded earlier, equal times across children break by child index, a
// nil child contributes nothing, per-request span counters continue from
// the parent's, and everything shifts past the parent's earlier records.
func TestMergeOrder(t *testing.T) {
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Time(time.Millisecond) }
	parent := NewRecorder()
	parent.Span(LayerServing, "prior", 1, 1, 0, 0, ms(10), 0)

	c0, c2 := parent.NewChild(), parent.NewChild()
	c0.Span(LayerServing, "a", 1, 1, 0, ms(5), ms(7), 0)
	c0.Span(LayerServing, "b", 2, 1, 0, ms(2), ms(3), 0)
	c0.Span(LayerServing, "retro", 1, 1, 0, ms(1), ms(9), 0) // starts before a and b
	c0.InstantAt(LayerServing, "x", 1, 1, 0, ms(4), 0)
	c0.InstantAt(LayerServing, "y", 2, 1, 0, ms(2), 0)
	c2.Span(LayerServing, "c", 1, 1, 1, ms(5), ms(6), 0) // ties a's start
	c2.Span(LayerServing, "d", 3, 1, 1, ms(2), ms(4), 0) // ties b's start
	c2.InstantAt(LayerServing, "z", 3, 1, 1, ms(2), 0)   // ties y
	parent.Merge("run:merged", []*Recorder{c0, nil, c2})

	base := ms(11) // prior's end plus runGap
	type spanKey struct {
		Name  string
		Req   int32
		Seq   uint32
		Start sim.Time
	}
	wantSpans := []spanKey{
		{"prior", 1, 0, 0},
		{"retro", 1, 1, base + ms(1)},
		{"b", 2, 0, base + ms(2)},
		{"d", 3, 0, base + ms(2)},
		{"a", 1, 2, base + ms(5)},
		{"c", 1, 3, base + ms(5)},
	}
	var gotSpans []spanKey
	for _, s := range parent.Trace().Spans {
		gotSpans = append(gotSpans, spanKey{s.Name, s.Req, s.Seq, s.Start})
	}
	if !reflect.DeepEqual(gotSpans, wantSpans) {
		t.Errorf("merged spans\n got %+v\nwant %+v", gotSpans, wantSpans)
	}
	type pointKey struct {
		Name string
		Req  int32
		At   sim.Time
	}
	wantPoints := []pointKey{
		{"run:merged", NoReq, base},
		{"y", 2, base + ms(2)},
		{"z", 3, base + ms(2)},
		{"x", 1, base + ms(4)},
	}
	var gotPoints []pointKey
	for _, p := range parent.Trace().Instants {
		gotPoints = append(gotPoints, pointKey{p.Name, p.Req, p.At})
	}
	if !reflect.DeepEqual(gotPoints, wantPoints) {
		t.Errorf("merged instants\n got %+v\nwant %+v", gotPoints, wantPoints)
	}
}

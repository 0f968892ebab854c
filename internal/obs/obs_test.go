package obs

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
	"time"

	"olympian/internal/sim"
)

// TestSpanIDsDeterministic: span identity is (request, per-request counter),
// assigned in simulation order — a pure function of the recorded sequence.
func TestSpanIDsDeterministic(t *testing.T) {
	record := func() []Span {
		r := NewRecorder()
		env := sim.NewEnv(1)
		defer env.Shutdown()
		r.Bind(env, "run")
		env.Go("w", func(p *sim.Proc) {
			for req := 0; req < 3; req++ {
				id := r.StartSpan(LayerServing, "queue", req, 0, 0, 0)
				inner := r.StartSpan(LayerExecutor, "job", req, 0, 0, 0)
				p.Sleep(time.Millisecond)
				r.EndSpan(inner)
				r.EndSpan(id)
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return r.Trace().Spans
	}
	a, b := record(), record()
	if len(a) != 6 {
		t.Fatalf("got %d spans, want 6", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span %d differs across same-seed runs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Per-request counters restart at 0 and increase monotonically.
	seen := map[int32]uint32{}
	for _, s := range a {
		if want := seen[s.Req]; s.Seq != want {
			t.Fatalf("req %d: seq %d, want %d", s.Req, s.Seq, want)
		}
		seen[s.Req]++
	}
}

// TestBindSplicesRuns: a second Bind shifts the time base past the first
// run, so runs occupy disjoint, ordered trace intervals.
func TestBindSplicesRuns(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 2; i++ {
		env := sim.NewEnv(int64(i))
		r.Bind(env, "run")
		env.Go("w", func(p *sim.Proc) {
			id := r.StartSpan(LayerHarness, "work", NoReq, NoClass, NoDevice, 0)
			p.Sleep(10 * time.Millisecond)
			r.EndSpan(id)
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		env.Shutdown()
	}
	spans := r.Trace().Spans
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[1].Start <= spans[0].End {
		t.Fatalf("second run (start %d) overlaps first (end %d)", spans[1].Start, spans[0].End)
	}
}

// TestTraceClampsOpenSpans: a span never closed is clamped to the horizon
// in the snapshot rather than keeping its zero End.
func TestTraceClampsOpenSpans(t *testing.T) {
	r := NewRecorder()
	env := sim.NewEnv(1)
	defer env.Shutdown()
	r.Bind(env, "run")
	env.Go("w", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		r.StartSpan(LayerGPU, "kernel", 0, 0, 0, 0) // never ended
		p.Sleep(time.Millisecond)
		r.Instant(LayerGPU, "tick", NoReq, NoClass, 0, 0)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	tr := r.Trace()
	s := tr.Spans[len(tr.Spans)-1]
	if s.End < s.Start {
		t.Fatalf("open span not clamped: %+v", s)
	}
}

// TestNilRecorderSafe: every method on a nil recorder is a no-op, and a
// nil registry hands out nil series whose methods are no-ops.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Bind(nil, "x")
	id := r.StartSpan(LayerServing, "s", 1, 0, 0, 0)
	if id != 0 {
		t.Fatalf("nil StartSpan returned %d, want 0", id)
	}
	r.EndSpan(id)
	r.Span(LayerServing, "s", 1, 0, 0, 0, 1, 0)
	r.Instant(LayerServing, "i", 1, 0, 0, 0)
	if tr := r.Trace(); len(tr.Spans) != 0 || len(tr.Instants) != 0 {
		t.Fatal("nil recorder produced records")
	}
	reg := r.Registry()
	if reg != nil {
		t.Fatal("nil recorder returned non-nil registry")
	}
	c := reg.Counter("x_total", "")
	c.Inc()
	c.Add(3)
	ggauge := reg.Gauge("x", "")
	ggauge.Set(4)
	if c.Value() != 0 || ggauge.Value() != 0 {
		t.Fatal("nil series held a value")
	}
	if err := reg.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if len(reg.Snapshot()) != 0 {
		t.Fatal("nil registry snapshot non-empty")
	}
}

// TestMuteLayer: a muted layer records nothing — spans, retro spans, and
// instants all drop — while other layers are unaffected.
func TestMuteLayer(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Shutdown()
	r := NewRecorder()
	r.Bind(env, "run")
	r.MuteLayer(LayerGPU)
	if id := r.StartSpan(LayerGPU, "kernel", 0, NoClass, 0, 0); id != 0 {
		t.Fatalf("muted StartSpan returned live handle %d", id)
	}
	r.Span(LayerGPU, "stall", NoReq, NoClass, 0, 0, 10, 0)
	r.Instant(LayerGPU, "kernel_fault", 0, NoClass, 0, 0)
	id := r.StartSpan(LayerServing, "queue", 0, 1, 0, 0)
	r.EndSpan(id)
	if len(r.Spans()) != 1 || r.Spans()[0].Layer != LayerServing {
		t.Fatalf("muted layer leaked spans: %+v", r.Spans())
	}
	// Bind's harness instant plus nothing from the muted layer.
	if points := r.Trace().Instants; len(points) != 1 || points[0].Layer != LayerHarness {
		t.Fatalf("muted layer leaked instants: %+v", points)
	}
}

// TestZeroSpanIDIgnored: the zero SpanID (a never-assigned struct field)
// must not close anything.
func TestZeroSpanIDIgnored(t *testing.T) {
	r := NewRecorder()
	env := sim.NewEnv(1)
	defer env.Shutdown()
	r.Bind(env, "run")
	id := r.StartSpan(LayerServing, "s", 0, 0, 0, 0)
	r.EndSpan(0)          // zero value
	r.EndSpan(SpanID(99)) // out of range
	r.EndSpan(SpanID(-5)) // negative
	if got := r.Spans()[id-1].End; got != 0 {
		t.Fatalf("invalid EndSpan mutated a span: End=%d", got)
	}
}

// TestPrometheusExposition: output parses as the text format — every
// family gets HELP/TYPE lines, every sample line is `name{labels} value`,
// and rendering is deterministic and sorted.
func TestPrometheusExposition(t *testing.T) {
	g := NewRegistry()
	g.Counter("olympian_requests_total", "Requests by class.", "class", "interactive").Add(12)
	g.Counter("olympian_requests_total", "Requests by class.", "class", "batch").Add(30)
	g.Gauge("olympian_limit", "Admission limit.").Set(6.5)
	g.Counter("olympian_sheds_total", "Shed requests.").Inc()

	var buf bytes.Buffer
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	types := map[string]string{}
	samples := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		samples[line[:sp]] = line[sp+1:]
	}
	if types["olympian_requests_total"] != "counter" || types["olympian_limit"] != "gauge" {
		t.Fatalf("wrong TYPE lines: %v", types)
	}
	want := map[string]string{
		`olympian_requests_total{class="interactive"}`: "12",
		`olympian_requests_total{class="batch"}`:       "30",
		"olympian_limit":                               "6.5",
		"olympian_sheds_total":                         "1",
	}
	for k, v := range want {
		if samples[k] != v {
			t.Fatalf("sample %s = %q, want %q\nfull output:\n%s", k, samples[k], v, out)
		}
	}

	// Deterministic: same state renders byte-identically.
	var buf2 bytes.Buffer
	if err := g.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Fatal("two renders of equal state differ")
	}

	// Label values with quotes and backslashes are escaped.
	g2 := NewRegistry()
	g2.Counter("x_total", "", "k", `a"b\c`).Inc()
	var buf3 bytes.Buffer
	if err := g2.WritePrometheus(&buf3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf3.String(), `x_total{k="a\"b\\c"} 1`) {
		t.Fatalf("labels not escaped: %q", buf3.String())
	}
}

// TestSnapshot: snapshot keys are name+rendered labels.
func TestSnapshot(t *testing.T) {
	g := NewRegistry()
	g.Counter("a_total", "", "d", "0").Add(2)
	g.Gauge("b", "").Set(-1.5)
	snap := g.Snapshot()
	if snap[`a_total{d="0"}`] != 2 || snap["b"] != -1.5 {
		t.Fatalf("bad snapshot: %v", snap)
	}
}

// Package obs is the serving stack's observability layer: a deterministic,
// allocation-light span recorder plus a counter/gauge registry with
// Prometheus text-format exposition.
//
// The recorder follows one request through every layer of the stack —
// admission, queueing, batch assembly, gang dispatch, kernel execution,
// failover and hedging — as spans and instant events keyed to the
// simulation's virtual clock. Nothing here reads the wall clock or draws
// randomness: span IDs are (request ID, per-request monotonic counter)
// pairs, times come from sim.Env.Now(), and records are appended in
// simulation order, so two same-seed runs produce byte-identical traces.
//
// The disabled path is a nil recorder: every method is a nil-receiver
// no-op that allocates nothing and costs single-digit nanoseconds, so a
// production-shaped run pays for observability only when it is switched
// on (BenchmarkObsDisabled guards this).
package obs

import (
	"cmp"
	"slices"

	"olympian/internal/records"
	"olympian/internal/sim"
)

// Layer identifies which layer of the stack recorded an event.
type Layer uint8

// Layers, bottom-up through the stack.
const (
	// LayerGPU is the simulated device: kernel H2D/launch phases, busy
	// intervals, and injected driver stalls.
	LayerGPU Layer = iota
	// LayerExecutor is the execution engine: gang-of-threads jobs, kernel
	// retries, job aborts.
	LayerExecutor
	// LayerServing is the request front-end: admission, queue wait, batch
	// assembly, shedding.
	LayerServing
	// LayerCluster is the multi-device layer: routing, failover, hedging.
	LayerCluster
	// LayerOverload is the overload control plane: limit cuts and
	// retry-budget denials.
	LayerOverload
	// LayerHarness is the workload harness: closed-loop client batches and
	// run boundaries.
	LayerHarness
	// LayerTelemetry is the telemetry plane: SLO burn-rate alert
	// transitions evaluated on the sampled virtual timeline.
	LayerTelemetry
)

// String names the layer.
func (l Layer) String() string {
	switch l {
	case LayerGPU:
		return "gpu"
	case LayerExecutor:
		return "executor"
	case LayerServing:
		return "serving"
	case LayerCluster:
		return "cluster"
	case LayerOverload:
		return "overload"
	case LayerHarness:
		return "harness"
	case LayerTelemetry:
		return "telemetry"
	default:
		return "unknown"
	}
}

// NoReq marks a span or instant that belongs to no particular request
// (device-level or batch-level events).
const NoReq = -1

// NoClass marks an event with no priority class.
const NoClass = -1

// NoDevice marks a cluster-level event not tied to one device.
const NoDevice = -1

// SpanID refers to an open span. The zero value is invalid, so struct
// fields holding a SpanID need no explicit initialisation to mean "no
// span".
type SpanID int32

// Span is one recorded interval. Its identity is (Req, Seq): Seq is a
// per-request monotonic counter assigned when the span is recorded (or, for
// a NewChild child's span, when Splice or Merge folds it in), so IDs are a
// pure function of simulation order.
type Span struct {
	// Req is the request the span belongs to, or NoReq.
	Req int32
	// Seq is the per-request monotonic span counter.
	Seq uint32
	// Class is the request's priority class, or NoClass.
	Class int8
	// Device is the device index, or NoDevice for cluster-level spans.
	Device int16
	// Layer is the recording layer.
	Layer Layer
	// Name labels the span; callers pass constant strings so the enabled
	// path stays allocation-light.
	Name string
	// Start and End bound the interval on the virtual clock (End is
	// clamped to the trace horizon for spans still open at snapshot time).
	Start, End sim.Time
	// Arg is a free numeric detail (batch size, device index, attempt…).
	Arg int64
}

// Instant is one recorded point event (a shed, a stall, a route decision).
type Instant struct {
	// Req, Class, Device, Layer, Name, Arg: as in Span.
	Req    int32
	Class  int8
	Device int16
	Layer  Layer
	Name   string
	At     sim.Time
	Arg    int64
}

// Trace is an immutable snapshot of a recorder's spans and instants, in
// recorded (simulation) order. Its slices may share the recorder's storage,
// so treat them as read-only.
type Trace struct {
	Spans    []Span
	Instants []Instant
}

// runGap separates successive bound runs on the trace timeline so their
// events do not overlap when one recorder observes several simulations.
const runGap = sim.Time(1e6) // 1ms

// Recorder collects spans and instants against a simulation's virtual
// clock. A nil *Recorder is the disabled path: every method is a no-op.
//
// A recorder outlives any single simulation: Bind attaches it to the
// environment about to run and shifts the time base past everything
// recorded so far, so one recorder can splice several runs (an experiment
// sweep) into one trace.
type Recorder struct {
	// Metrics is the recorder's counter/gauge registry; layers bump
	// counters as they record. Always non-nil on a NewRecorder recorder.
	Metrics *Registry

	env    *sim.Env
	base   sim.Time
	maxT   sim.Time
	off    uint8 // bitmask of muted layers; zero = record everything
	spans  records.Store[Span]
	points records.Store[Instant]
	// open counts the spans Trace would clamp (End < Start), so Trace knows
	// when it may share the records instead of copying them.
	open int
	// reqSeq holds each request's next span counter; nil on a NewChild
	// recorder, whose spans the recorder folding it in numbers.
	reqSeq map[int32]uint32
}

// NewRecorder returns an enabled recorder with a fresh metrics registry.
// Bind it to an environment before recording.
func NewRecorder() *Recorder {
	return &Recorder{
		Metrics: NewRegistry(),
		reqSeq:  make(map[int32]uint32),
	}
}

// MuteLayer drops every span and instant the given layer would record.
// GPU tracing in particular multiplies trace volume by the per-inference
// kernel count; olympian-sim mutes it unless -trace-gpu is set. Muting is
// static configuration, so same-seed runs with the same mask still render
// byte-identical traces. Metrics are unaffected.
func (r *Recorder) MuteLayer(l Layer) {
	if r == nil {
		return
	}
	r.off |= 1 << l
}

// muted reports whether layer l is dropped.
func (r *Recorder) muted(l Layer) bool { return r.off&(1<<l) != 0 }

// Registry returns the recorder's metrics registry, or nil when the
// recorder is disabled (a nil Registry hands out nil counters and gauges,
// whose methods are no-ops, so callers wire metrics unconditionally).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.Metrics
}

// Bind attaches the recorder to the environment about to run and records
// a run-boundary instant carrying label. The time base shifts past
// everything recorded so far, so successive runs occupy disjoint trace
// intervals in bind order.
func (r *Recorder) Bind(env *sim.Env, label string) {
	if r == nil {
		return
	}
	if r.spans.Len() > 0 || r.points.Len() > 0 {
		r.base = r.maxT + runGap
	}
	r.env = env
	r.Instant(LayerHarness, label, NoReq, NoClass, NoDevice, 0)
}

// Attach binds the recorder to env without shifting the time base or
// recording a boundary instant. Child recorders use it: the parent assigns
// the single shared time base when it later splices or merges them.
func (r *Recorder) Attach(env *sim.Env) {
	if r == nil {
		return
	}
	r.env = env
}

// NewChild returns a fresh recorder inheriting this recorder's layer mute
// mask, with its own registry and an unshifted time base. Children record
// one run (or one shard of a run) in isolation — safe to drive from a
// worker goroutine — and are folded back with Splice or Merge, which number
// their spans; a child therefore leaves every Seq zero.
func (r *Recorder) NewChild() *Recorder {
	if r == nil {
		return nil
	}
	return &Recorder{Metrics: NewRegistry(), off: r.off}
}

// Splice appends child's records onto this recorder's timeline exactly as
// if the child's run had been recorded here directly: the base shifts past
// everything recorded so far (Bind's rule), the child's spans and instants
// land shifted by that base in their recorded order, per-request span
// counters continue from the parent's, and the child's metrics are absorbed
// into the parent registry. Splicing children in run order therefore
// reproduces the serial single-recorder trace byte-for-byte. Splice consumes
// the child: its records are released.
func (r *Recorder) Splice(child *Recorder) {
	if r == nil || child == nil {
		return
	}
	r.env = nil
	if r.spans.Len() > 0 || r.points.Len() > 0 {
		r.base = r.maxT + runGap
	}
	for i := 0; i < child.spans.Len(); i++ {
		r.spans.Push(r.place(r.shift(*child.spans.At(i))))
	}
	for i := 0; i < child.points.Len(); i++ {
		p := *child.points.At(i)
		p.At += r.base
		r.points.Push(p)
	}
	r.note(r.base + child.maxT)
	r.Metrics.Absorb(child.Metrics)
	child.release()
}

// shift moves a folded child span onto this recorder's timeline by the
// base. An open span (End < Start) keeps its zero End so Trace() still
// clamps it to the final horizon, exactly as the serial path would.
func (r *Recorder) shift(s Span) Span {
	if s.End >= s.Start {
		s.End += r.base
	}
	s.Start += r.base
	return s
}

// place readies s to be stored: it gets its request's next span counter
// (a NewChild child keeps no counters and leaves Seq alone), and an open
// span is counted.
func (r *Recorder) place(s Span) Span {
	if r.reqSeq != nil {
		s.Seq = r.reqSeq[s.Req]
		r.reqSeq[s.Req] = s.Seq + 1
	}
	if s.End < s.Start {
		r.open++
	}
	return s
}

// release drops a folded child's records so their blocks can be collected.
func (r *Recorder) release() {
	r.spans, r.points, r.open = records.Store[Span]{}, records.Store[Instant]{}, 0
}

// Merge folds concurrent children — the per-shard recorders of one sharded
// run — onto this recorder's timeline under a single base shift, recording
// a run-boundary instant carrying label first (Bind's role for a sharded
// run). Records interleave by (time, child index, child record index) and
// per-request span counters are assigned in that merged order, so the
// result is a pure function of the children's contents: engines that
// produce identical shard recordings produce identical merged traces.
//
// Merge consumes the children: the merged records are written once, into
// one exactly sized slice the parent adopts when it holds no records yet
// (so Trace and Spans can share it), and each child's blocks are released.
//
// Metrics absorb in child order: counters sum; a gauge takes the value of
// the last child that set it (per-device gauge labels keep that unambiguous).
func (r *Recorder) Merge(label string, children []*Recorder) {
	if r == nil {
		return
	}
	r.env = nil
	if r.spans.Len() > 0 || r.points.Len() > 0 {
		r.base = r.maxT + runGap
	}
	nSpans, nPoints := 0, 0
	for _, ch := range children {
		if ch != nil {
			nSpans += ch.spans.Len()
			nPoints += ch.points.Len()
			r.note(r.base + ch.maxT)
		}
	}
	// One ref buffer serves the span pass, then the instant pass.
	refs := make([]mergeRef, 0, max(nSpans, nPoints))
	for c, ch := range children {
		for i := 0; ch != nil && i < ch.spans.Len(); i++ {
			refs = append(refs, mergeRef{ch.spans.At(i).Start, int32(c), int32(i)})
		}
	}
	slices.SortFunc(refs, mergeRef.compare)
	spans := make([]Span, len(refs))
	for j, ref := range refs {
		spans[j] = r.place(r.shift(*children[ref.child].spans.At(int(ref.idx))))
	}
	r.spans.Extend(spans)

	refs = refs[:0]
	for c, ch := range children {
		for i := 0; ch != nil && i < ch.points.Len(); i++ {
			refs = append(refs, mergeRef{ch.points.At(i).At, int32(c), int32(i)})
		}
	}
	slices.SortFunc(refs, mergeRef.compare)
	// The run-boundary instant leads the merged instants (Bind's role).
	points := make([]Instant, 0, 1+len(refs))
	if !r.muted(LayerHarness) {
		points = append(points, Instant{Req: NoReq, Class: NoClass, Device: NoDevice,
			Layer: LayerHarness, Name: label, At: r.base})
		r.note(r.base)
	}
	for _, ref := range refs {
		p := *children[ref.child].points.At(int(ref.idx))
		p.At += r.base
		points = append(points, p)
	}
	r.points.Extend(points)

	for _, ch := range children {
		if ch != nil {
			r.Metrics.Absorb(ch.Metrics)
			ch.release()
		}
	}
}

// mergeRef locates one child record for Merge's interleave: its time, then
// the child index and the record's index within that child. The three
// together are a total order, so the merged sequence cannot depend on the
// sort algorithm.
type mergeRef struct {
	t          sim.Time
	child, idx int32
}

func (a mergeRef) compare(b mergeRef) int {
	if c := cmp.Compare(a.t, b.t); c != 0 {
		return c
	}
	if c := cmp.Compare(a.child, b.child); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// now returns the current trace time: the bound environment's virtual
// clock shifted by the run base.
func (r *Recorder) now() sim.Time {
	if r.env == nil {
		return r.base
	}
	return r.base + r.env.Now()
}

// note advances the trace horizon.
func (r *Recorder) note(t sim.Time) {
	if t > r.maxT {
		r.maxT = t
	}
}

// StartSpan opens a span at the current virtual time and returns its
// handle. On a nil recorder it returns the invalid SpanID 0.
func (r *Recorder) StartSpan(layer Layer, name string, req, class, device int, arg int64) SpanID {
	if r == nil || r.muted(layer) {
		return 0
	}
	t := r.now()
	r.spans.Push(r.place(Span{
		Req: int32(req), Class: int8(class), Device: int16(device),
		Layer: layer, Name: name, Start: t, Arg: arg,
	}))
	r.note(t)
	return SpanID(r.spans.Len()) // 1-based so the zero value stays invalid
}

// EndSpan closes a span at the current virtual time. Invalid handles
// (the zero value, or any handle on a nil recorder) are ignored. End each
// span once: a Trace snapshot may share the records of closed spans.
func (r *Recorder) EndSpan(id SpanID) {
	if r == nil || id <= 0 || int(id) > r.spans.Len() {
		return
	}
	t := r.now()
	s := r.spans.At(int(id) - 1)
	if s.End < s.Start {
		r.open--
	}
	s.End = t
	if s.End < s.Start {
		r.open++
	}
	r.note(t)
}

// Span records a completed interval retroactively; start and end are
// times on the bound environment's clock (e.g. a request's ArriveAt).
func (r *Recorder) Span(layer Layer, name string, req, class, device int, start, end sim.Time, arg int64) {
	if r == nil || r.muted(layer) {
		return
	}
	r.spans.Push(r.place(Span{
		Req: int32(req), Class: int8(class), Device: int16(device),
		Layer: layer, Name: name, Start: r.base + start, End: r.base + end, Arg: arg,
	}))
	r.note(r.base + end)
}

// Instant records a point event at the current virtual time.
func (r *Recorder) Instant(layer Layer, name string, req, class, device int, arg int64) {
	if r == nil || r.muted(layer) {
		return
	}
	t := r.now()
	r.points.Push(Instant{
		Req: int32(req), Class: int8(class), Device: int16(device),
		Layer: layer, Name: name, At: t, Arg: arg,
	})
	r.note(t)
}

// Base returns the current run time-base offset: the shift Bind/Merge apply
// so successive runs occupy disjoint trace intervals. Renderers that overlay
// post-hoc data (telemetry counter tracks) add it to run-relative timestamps
// to land on the same interval as the run's spans.
func (r *Recorder) Base() sim.Time {
	if r == nil {
		return 0
	}
	return r.base
}

// InstantAt records a point event at an explicit time on the bound run's
// clock (shifted by the current base, like Span's retroactive recording).
// The telemetry plane uses it to log alert transitions evaluated after the
// run onto the positions they occupied on the virtual timeline.
func (r *Recorder) InstantAt(layer Layer, name string, req, class, device int, at sim.Time, arg int64) {
	if r == nil || r.muted(layer) {
		return
	}
	t := r.base + at
	r.points.Push(Instant{
		Req: int32(req), Class: int8(class), Device: int16(device),
		Layer: layer, Name: name, At: t, Arg: arg,
	})
	r.note(t)
}

// Spans returns the recorded spans in order, open ones unclamped; treat the
// result as read-only. Records held in one piece (a merged fleet parent's)
// are shared, not copied.
func (r *Recorder) Spans() []Span {
	if r == nil || r.spans.Len() == 0 {
		return nil
	}
	if spans, ok := r.spans.Shared(); ok {
		return spans
	}
	return r.spans.AppendTo(make([]Span, 0, r.spans.Len()))
}

// Trace snapshots the recorder. Spans still open are clamped to the trace
// horizon so the snapshot renders cleanly. Records held in one piece are
// shared rather than copied — spans only when none is open, since those
// records are final.
func (r *Recorder) Trace() *Trace {
	if r == nil {
		return &Trace{}
	}
	spans, ok := r.spans.Shared()
	if !ok || r.open > 0 {
		spans = r.spans.AppendTo(make([]Span, 0, r.spans.Len()))
		for i := range spans {
			if spans[i].End < spans[i].Start {
				spans[i].End = max(r.maxT, spans[i].Start)
			}
		}
	}
	points, ok := r.points.Shared()
	if !ok {
		points = r.points.AppendTo(make([]Instant, 0, r.points.Len()))
	}
	return &Trace{Spans: spans, Instants: points}
}

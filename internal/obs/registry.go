package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// A Registry holds named counter, gauge, and histogram families and renders
// them in Prometheus text exposition format. It is safe for concurrent use:
// series values are atomics, family registration takes a mutex. A nil
// *Registry hands out nil series whose methods are no-ops, so
// instrumentation can be wired unconditionally.
//
// A counter view (CounterView) is the exception to the atomics: it reads an
// int tally its layer keeps, so the registry never holds a second copy of
// the count. The contract is that a view's source changes only on the
// goroutine that owns the shard whose registry the view sits in (the
// shard's sampler scrapes it there), and that any other reader — a merge, a
// render, a Stats call — reads it only after Run returns.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// familyKind distinguishes how a family's series accumulate and render.
type familyKind uint8

const (
	kindGauge familyKind = iota
	kindCounter
	kindHistogram
)

func (k familyKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

type family struct {
	name   string
	help   string
	kind   familyKind
	mu     sync.Mutex
	series map[string]*Series
	hists  map[string]*Hist
	order  []string
}

// Series is one (family, label set) time series. Its value is a float64
// stored as bits in an atomic; Add uses CAS so concurrent increments from
// the HTTP server do not race. A counter series may also be a view: its
// value then adds the int tallies in src and the next chain to the bits.
type Series struct {
	labels string // rendered `{k="v",...}` suffix, "" when unlabeled
	bits   atomic.Uint64
	// touched marks a series ever written, so Absorb can tell a gauge that
	// was set to zero apart from one never set at all.
	touched atomic.Bool
	// src is the tally a view reads (nil: not a view); next holds the
	// tallies of further views registered under the same labels, such as
	// the same device in successive runs bound to one recorder.
	src  *int
	next *Series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (g *Registry) family(name, help string, kind familyKind) *family {
	g.mu.Lock()
	defer g.mu.Unlock()
	f := g.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*Series)}
		if kind == kindHistogram {
			f.hists = make(map[string]*Hist)
		}
		g.families[name] = f
		g.order = append(g.order, name)
	}
	return f
}

// renderLabels builds the `{k="v",...}` suffix. Labels are key/value pairs
// in the order given; values are escaped per the exposition format.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		v := kv[i+1]
		v = strings.ReplaceAll(v, `\`, `\\`)
		v = strings.ReplaceAll(v, "\n", `\n`)
		v = strings.ReplaceAll(v, `"`, `\"`)
		b.WriteString(v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func (f *family) get(kv []string) *Series {
	return f.getByKey(renderLabels(kv))
}

func (f *family) getByKey(key string) *Series {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s == nil {
		s = &Series{labels: key}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

func (f *family) getHistByKey(key string) *Hist {
	f.mu.Lock()
	defer f.mu.Unlock()
	h := f.hists[key]
	if h == nil {
		h = &Hist{labels: key}
		f.hists[key] = h
		f.order = append(f.order, key)
	}
	return h
}

// Counter registers (or finds) a counter family and returns the series for
// the given label key/value pairs. A nil registry returns a nil series.
func (g *Registry) Counter(name, help string, labels ...string) *Series {
	if g == nil {
		return nil
	}
	return g.family(name, help, kindCounter).get(labels)
}

// CounterView registers a counter series whose value is read from *src, a
// tally the calling layer already keeps and bumps itself. It returns no
// handle, so the view cannot be incremented: the tally stays the only copy
// of the count. Registering the same labels again sums the sources, as
// incrementing one shared counter from both would. No-op on a nil registry.
// See Registry for when *src may change.
func (g *Registry) CounterView(name, help string, src *int, labels ...string) {
	if g == nil {
		return
	}
	f := g.family(name, help, kindCounter)
	s := f.get(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s.src == nil {
		s.src = src
	} else {
		s.next = &Series{src: src, next: s.next}
	}
}

// Gauge registers (or finds) a gauge family and returns the series for the
// given label key/value pairs. A nil registry returns a nil series.
func (g *Registry) Gauge(name, help string, labels ...string) *Series {
	if g == nil {
		return nil
	}
	return g.family(name, help, kindGauge).get(labels)
}

// Histogram registers (or finds) a histogram family and returns the series
// for the given label key/value pairs. Every histogram shares the same
// fixed log bucket boundaries (see hist.go), so shard-child histograms
// Absorb exactly and equal state renders byte-identical exposition. A nil
// registry returns a nil *Hist whose methods are no-ops.
func (g *Registry) Histogram(name, help string, labels ...string) *Hist {
	if g == nil {
		return nil
	}
	return g.family(name, help, kindHistogram).getHistByKey(renderLabels(labels))
}

// Add increments the series by delta. No-op on a nil series.
func (s *Series) Add(delta float64) {
	if s == nil {
		return
	}
	s.touched.Store(true)
	for {
		old := s.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if s.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc increments the series by one. No-op on a nil series.
func (s *Series) Inc() { s.Add(1) }

// Set stores v. No-op on a nil series.
func (s *Series) Set(v float64) {
	if s == nil {
		return
	}
	s.touched.Store(true)
	s.bits.Store(math.Float64bits(v))
}

// Value returns the current value, 0 on a nil series. A view's value adds
// its tallies to whatever was added directly (Absorb folds into the bits).
func (s *Series) Value() float64 {
	if s == nil {
		return 0
	}
	v := math.Float64frombits(s.bits.Load())
	for w := s; w != nil && w.src != nil; w = w.next {
		v += float64(*w.src)
	}
	return v
}

// formatValue renders a sample the way Prometheus clients do: integers
// without a decimal point, everything else in shortest-round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// histLabelKey splices extra into a rendered label suffix: `{a="b"}` +
// `le="x"` -> `{a="b",le="x"}`, “ + `le="x"` -> `{le="x"}`.
func histLabelKey(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// writeHist renders one histogram series: cumulative `_bucket` lines with
// `le` upper bounds in seconds, then `_sum` (exact, from the integer
// nanosecond accumulator) and `_count`.
func writeHist(w io.Writer, name string, h *Hist) error {
	cum := uint64(0)
	for i := 0; i < numHistBuckets; i++ {
		cum += h.counts[i].Load()
		key := histLabelKey(h.labels, fmt.Sprintf(`le="%s"`, formatValue(histBoundsSec[i])))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, key, cum); err != nil {
			return err
		}
	}
	cum += h.counts[numHistBuckets].Load()
	key := histLabelKey(h.labels, `le="+Inf"`)
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, key, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, h.labels, formatValue(h.SumSeconds())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, h.labels, cum)
	return err
}

// WritePrometheus renders every family in text exposition format. Families
// appear in name order and series in label order, so output for equal
// state is byte-identical. Each family's series set is snapshotted under a
// single lock acquisition; values are read from their atomics afterwards,
// so a concurrent writer can move a value mid-render but never the set or
// order of lines.
func (g *Registry) WritePrometheus(w io.Writer) error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	names := make([]string, len(g.order))
	copy(names, g.order)
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, g.families[n])
	}
	g.mu.Unlock()

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		f.mu.Lock()
		keys := make([]string, len(f.order))
		copy(keys, f.order)
		series := make([]*Series, len(keys))
		hists := make([]*Hist, len(keys))
		for i, k := range keys {
			series[i] = f.series[k]
			hists[i] = f.hists[k]
		}
		f.mu.Unlock()
		idx := make([]int, len(keys))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
		for _, i := range idx {
			if h := hists[i]; h != nil {
				if err := writeHist(w, f.name, h); err != nil {
					return err
				}
				continue
			}
			s := series[i]
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(s.Value())); err != nil {
				return err
			}
		}
	}
	return nil
}

// Absorb folds other's series into this registry: counter values (views
// included) and histogram buckets add, and a gauge takes other's value when
// other ever wrote it (a child that never touched a gauge must not clobber
// the parent's). Counters ignore touched: a view is never written, and
// adding an untouched counter's zero changes nothing. Families and series
// are created as needed, in other's registration order, so absorbing
// children deterministically reproduces the registry a single shared
// recorder would have built — rendered output is sorted either way.
func (g *Registry) Absorb(other *Registry) {
	if g == nil || other == nil {
		return
	}
	other.mu.Lock()
	names := append([]string(nil), other.order...)
	other.mu.Unlock()
	for _, name := range names {
		other.mu.Lock()
		of := other.families[name]
		other.mu.Unlock()
		f := g.family(of.name, of.help, of.kind)
		of.mu.Lock()
		keys := append([]string(nil), of.order...)
		of.mu.Unlock()
		for _, k := range keys {
			of.mu.Lock()
			os := of.series[k]
			oh := of.hists[k]
			of.mu.Unlock()
			if oh != nil {
				// Register even when untouched, then add exactly.
				f.getHistByKey(k).absorb(oh)
				continue
			}
			// Register the series even when untouched: a shared recorder
			// renders zero-valued registered series, so the fold must too.
			s := f.getByKey(k)
			if of.kind == kindCounter {
				s.Add(os.Value())
			} else if os.touched.Load() {
				s.Set(os.Value())
			}
		}
	}
}

// Snapshot returns every scalar series value keyed by "name{labels}", plus
// each histogram's "<name>_count{labels}" and "<name>_sum{labels}".
// Experiments use it to fold metrics into reports without parsing text.
func (g *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	if g == nil {
		return out
	}
	g.mu.Lock()
	fams := make([]*family, 0, len(g.families))
	for _, f := range g.families {
		fams = append(fams, f)
	}
	g.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		for k, s := range f.series {
			out[f.name+k] = s.Value()
		}
		for k, h := range f.hists {
			out[f.name+"_count"+k] = float64(h.Count())
			out[f.name+"_sum"+k] = h.SumSeconds()
		}
		f.mu.Unlock()
	}
	return out
}

// VisitScalars calls fn for each scalar (counter or gauge) series of every
// family, in registration order, with the series' touched state. The
// telemetry sampler scrapes through this each tick.
func (g *Registry) VisitScalars(fn func(name, labels string, counter bool, v float64, touched bool)) {
	if g == nil {
		return
	}
	g.mu.Lock()
	names := append([]string(nil), g.order...)
	g.mu.Unlock()
	for _, name := range names {
		g.mu.Lock()
		f := g.families[name]
		g.mu.Unlock()
		if f.kind == kindHistogram {
			continue
		}
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		ss := make([]*Series, len(keys))
		for i, k := range keys {
			ss[i] = f.series[k]
		}
		f.mu.Unlock()
		for i, k := range keys {
			fn(f.name, k, f.kind == kindCounter, ss[i].Value(), ss[i].touched.Load())
		}
	}
}

// VisitHists calls fn for each histogram series of every family, in
// registration order.
func (g *Registry) VisitHists(fn func(name, labels string, h *Hist)) {
	if g == nil {
		return
	}
	g.mu.Lock()
	names := append([]string(nil), g.order...)
	g.mu.Unlock()
	for _, name := range names {
		g.mu.Lock()
		f := g.families[name]
		g.mu.Unlock()
		if f.kind != kindHistogram {
			continue
		}
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		hs := make([]*Hist, len(keys))
		for i, k := range keys {
			hs[i] = f.hists[k]
		}
		f.mu.Unlock()
		for i, k := range keys {
			fn(f.name, k, hs[i])
		}
	}
}

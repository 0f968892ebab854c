package telemetry

import (
	"unsafe"

	"olympian/internal/obs"
	"olympian/internal/sim"
)

// histSnap is one histogram's cumulative state at a tick boundary: the raw
// per-bucket counts plus the exact integer-nanosecond sum. Integer state
// makes merged snapshots independent of merge order.
type histSnap struct {
	buckets [obs.HistBucketCount]uint64
	sumNs   int64
}

func (s histSnap) count() uint64 {
	n := uint64(0)
	for _, c := range s.buckets {
		n += c
	}
	return n
}

func (s histSnap) add(o histSnap) histSnap {
	for i := range s.buckets {
		s.buckets[i] += o.buckets[i]
	}
	s.sumNs += o.sumNs
	return s
}

// A ring chunk holds ringChunk ticks, or fewer when that would pass
// ringChunkBytes: Go's largest small-object size class, beyond which an
// allocation rounds up to whole pages (32 histogram snapshots would waste a
// fifth of their chunk).
const (
	ringChunk      = 32
	ringChunkBytes = 32 << 10
)

// chunkLen is the number of ticks one chunk of T holds.
func chunkLen[T any]() int {
	var v T
	return max(1, min(ringChunk, ringChunkBytes/int(unsafe.Sizeof(v))))
}

// ring is one series' history over the last cap ticks. A series appears at
// the tick its registry series is first scraped (first); pushes then cover
// every consecutive tick, with the oldest evicted past the capacity. Values
// live in chunks of chunkLen slots, each allocated when the ring first
// reaches it and overwritten in place once the ring wraps, so a ring
// allocates what it keeps and a push never copies earlier values.
type ring[T any] struct {
	cap    int
	first  int // absolute tick index of the first push
	n      int // pushes so far
	chunks [][]T
}

func (r *ring[T]) push(v T) {
	c := chunkLen[T]()
	slot := r.n % r.cap
	k := slot / c
	if k == len(r.chunks) {
		r.chunks = append(r.chunks, make([]T, min(c, r.cap-k*c)))
	}
	r.chunks[k][slot%c] = v
	r.n++
}

// at returns the value for absolute tick t; ok is false before the series
// first appeared or past the retained window.
func (r *ring[T]) at(t int) (v T, ok bool) {
	i := t - r.first
	if i < 0 || i >= r.n || i < r.n-r.cap {
		return v, false
	}
	c := chunkLen[T]()
	slot := i % r.cap
	return r.chunks[slot/c][slot%c], true
}

// scalarPoint is one scalar sample. touched mirrors the registry's touched
// flag so gauge merging can apply the same set-if-touched rule
// Registry.Absorb uses.
type scalarPoint struct {
	v       float64
	touched bool
}

// seriesKey identifies a series within a registry.
type seriesKey struct {
	name, labels string
}

// scalarRing is one scalar series' ring buffer.
type scalarRing struct {
	seriesKey
	counter bool
	ring[scalarPoint]
}

// histRing is one histogram series' ring of cumulative snapshots.
type histRing struct {
	seriesKey
	ring[histSnap]
}

// Sampler scrapes one registry into ring-buffer series on a fixed cadence of
// simulated time. Bind attaches it to an environment's heartbeat hook; on
// the sharded engine each shard gets its own sampler over its shard-child
// registry, and Merge folds them into one fleet Timeline. A nil sampler is
// the disabled plane: Bind and Scrape are no-ops.
type Sampler struct {
	cfg Config
	reg *obs.Registry

	ticks     int
	scalars   []*scalarRing
	scalarIdx map[seriesKey]int
	hists     []*histRing
	histIdx   map[seriesKey]int
}

// NewSampler builds a sampler over reg. Returns nil when reg is nil — the
// disabled plane.
func NewSampler(cfg Config, reg *obs.Registry) *Sampler {
	if reg == nil {
		return nil
	}
	return &Sampler{
		cfg:       cfg.withDefaults(),
		reg:       reg,
		scalarIdx: make(map[seriesKey]int),
		histIdx:   make(map[seriesKey]int),
	}
}

// Bind registers the sampler on env's heartbeat hook so Scrape runs every
// Interval of simulated time. The heartbeat only reads registry state, so
// binding a sampler cannot perturb the simulation. No-op on a nil sampler.
func (s *Sampler) Bind(env *sim.Env) {
	if s == nil || env == nil {
		return
	}
	env.Heartbeat(s.cfg.Interval, func(sim.Time) { s.Scrape() })
}

// Ticks returns the number of scrapes taken so far.
func (s *Sampler) Ticks() int {
	if s == nil {
		return 0
	}
	return s.ticks
}

// Scrape records one tick: every scalar and histogram series in the registry
// is snapshotted into its ring. Series that appear mid-run (lazily
// registered histograms) start at the current tick; earlier ticks read as
// zero. No-op on a nil sampler.
func (s *Sampler) Scrape() {
	if s == nil {
		return
	}
	tick := s.ticks
	s.reg.VisitScalars(func(name, labels string, counter bool, v float64, touched bool) {
		key := seriesKey{name, labels}
		i, ok := s.scalarIdx[key]
		if !ok {
			i = len(s.scalars)
			s.scalarIdx[key] = i
			s.scalars = append(s.scalars, &scalarRing{seriesKey: key, counter: counter,
				ring: ring[scalarPoint]{cap: s.cfg.Capacity, first: tick}})
		}
		s.scalars[i].push(scalarPoint{v, touched})
	})
	s.reg.VisitHists(func(name, labels string, h *obs.Hist) {
		key := seriesKey{name, labels}
		i, ok := s.histIdx[key]
		if !ok {
			i = len(s.hists)
			s.histIdx[key] = i
			s.hists = append(s.hists, &histRing{seriesKey: key,
				ring: ring[histSnap]{cap: s.cfg.Capacity, first: tick}})
		}
		s.hists[i].push(histSnap{buckets: h.Buckets(), sumNs: h.SumNanos()})
	})
	s.ticks++
}

// FinishTo extends the sampler to target ticks by re-scraping the registry's
// final state. On the sharded engine a shard whose local events end early
// stops ticking before the global horizon; since its registry no longer
// changes after its last event, every missing tick's scrape equals the final
// state — extending this way reproduces exactly what the single-heap engine
// (whose global pops keep every sampler ticking) would have recorded.
func (s *Sampler) FinishTo(target int) {
	if s == nil {
		return
	}
	for s.ticks < target {
		s.Scrape()
	}
}

package llm

import (
	"time"

	"olympian/internal/sim"
)

// DefaultLinkBytesPerSec is the modeled KV-transfer bandwidth (25 GB/s —
// NVLink/InfiniBand class, the interconnect disaggregated deployments
// assume).
const DefaultLinkBytesPerSec = 25e9

// DefaultLinkLatency is the modeled per-transfer fixed cost.
const DefaultLinkLatency = 200 * time.Microsecond

// Link models one prefill replica's egress interconnect for KV-cache
// handoffs; the zero value is an idle link. Transfers serialize: each
// occupies the link for DefaultLinkLatency + bytes/DefaultLinkBytesPerSec,
// and a transfer that arrives while the link is busy queues
// behind the in-flight one. State lives wherever the owner runs it (the
// cluster front-end), so the same report order yields the same transfer
// times on every engine.
type Link struct {
	busyUntil sim.Time
	bytes     int64
}

// Transfer books one KV shipment starting no earlier than now and returns
// its completion time.
func (l *Link) Transfer(now sim.Time, bytes int64) sim.Time {
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	if bytes < 0 {
		bytes = 0
	}
	dur := DefaultLinkLatency + time.Duration(float64(bytes)/DefaultLinkBytesPerSec*float64(time.Second))
	l.busyUntil = start.Add(dur)
	l.bytes += bytes
	return l.busyUntil
}

// Bytes returns the total payload carried.
func (l *Link) Bytes() int64 { return l.bytes }

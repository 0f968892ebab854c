package llm

import (
	"time"

	"olympian/internal/sim"
)

// DefaultLinkBytesPerSec is the fallback KV-transfer bandwidth (25 GB/s —
// NVLink/InfiniBand class, the interconnect disaggregated deployments
// assume).
const DefaultLinkBytesPerSec = 25e9

// DefaultLinkLatency is the fallback per-transfer fixed cost.
const DefaultLinkLatency = 200 * time.Microsecond

// Link models one prefill replica's egress interconnect for KV-cache
// handoffs. Transfers serialize: each occupies the link for latency +
// bytes/bandwidth, and a transfer that arrives while the link is busy queues
// behind the in-flight one. State lives wherever the owner runs it (the
// cluster front-end), so the same report order yields the same transfer
// times on every engine.
type Link struct {
	latency   time.Duration
	bytesPS   float64
	busyUntil sim.Time
	bytes     int64
}

// NewLink wires a link; non-positive arguments take the defaults.
func NewLink(latency time.Duration, bytesPerSec float64) *Link {
	if latency <= 0 {
		latency = DefaultLinkLatency
	}
	if bytesPerSec <= 0 {
		bytesPerSec = DefaultLinkBytesPerSec
	}
	return &Link{latency: latency, bytesPS: bytesPerSec}
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
	dur := l.latency + time.Duration(float64(bytes)/l.bytesPS*float64(time.Second))
	l.busyUntil = start.Add(dur)
	l.bytes += bytes
	return l.busyUntil
}

// Bytes returns the total payload carried.
func (l *Link) Bytes() int64 { return l.bytes }

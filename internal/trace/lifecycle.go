package trace

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"olympian/internal/obs"
	"olympian/internal/telemetry"
)

// Track layout for lifecycle traces: one Chrome-trace process per device
// (pid 0 is the cluster layer, pid d+1 is device d), and within each
// process one track per request class plus fixed tracks for the executor,
// the GPU, and the client harness.
const (
	tidInteractive = 1 // serving/cluster spans for the interactive class
	tidBatch       = 2 // serving/cluster spans for the batch class
	tidControl     = 3 // classless control events (limits, drains, routes)
	tidClients     = 4 // workload harness (client batches, run markers)
	tidExecutor    = 5 // execution engine (jobs, retries, aborts)
	tidGPU         = 6 // device occupancy (H2D, kernels, stalls)
	tidTelemetry   = 7 // SLO burn-rate alert transitions (telemetry plane)
)

// lifecyclePid maps an obs device index to a Chrome-trace process id.
func lifecyclePid(device int16) int {
	if device < 0 {
		return 0
	}
	return int(device) + 1
}

// lifecycleTid maps (layer, class) to a track within the process.
func lifecycleTid(layer obs.Layer, class int8) int {
	switch layer {
	case obs.LayerGPU:
		return tidGPU
	case obs.LayerExecutor:
		return tidExecutor
	case obs.LayerHarness:
		return tidClients
	case obs.LayerTelemetry:
		return tidTelemetry
	}
	// Serving, cluster, and overload events ride the class tracks.
	switch class {
	case 1:
		return tidInteractive
	case 0:
		return tidBatch
	default:
		return tidControl
	}
}

// tidNames labels the lifecycle tracks, indexed by tid.
var tidNames = [...]string{
	tidInteractive: "interactive",
	tidBatch:       "batch",
	tidControl:     "control",
	tidClients:     "clients",
	tidExecutor:    "executor",
	tidGPU:         "gpu",
	tidTelemetry:   "telemetry",
}

// trackSet records which lifecycle tracks a trace uses, as a bitmask of
// tids (all below 8) per process. The processes of the first 63 devices
// index a fixed array; larger fleets spill into a map.
type trackSet struct {
	low  [64]uint8
	high map[int]uint8
}

func (ts *trackSet) add(pid, tid int) {
	if pid < len(ts.low) {
		ts.low[pid] |= 1 << tid
		return
	}
	if ts.high == nil {
		ts.high = make(map[int]uint8)
	}
	ts.high[pid] |= 1 << tid
}

// writeMeta labels every used process and track, in (pid, tid) order.
func (ts *trackSet) writeMeta(jw *jsonWriter) {
	for pid, tids := range ts.low {
		writeProcessMeta(jw, pid, tids)
	}
	high := make([]int, 0, len(ts.high))
	for pid := range ts.high {
		high = append(high, pid)
	}
	slices.Sort(high)
	for _, pid := range high {
		writeProcessMeta(jw, pid, ts.high[pid])
	}
}

// writeProcessMeta names process pid ("cluster" or "device-N") and each
// of its tracks in tids.
func writeProcessMeta(jw *jsonWriter, pid int, tids uint8) {
	if tids == 0 {
		return
	}
	if pid == 0 {
		meta(jw, "process_name", pid, 0, "cluster")
	} else {
		var label [24]byte
		meta(jw, "process_name", pid, 0, strconv.AppendInt(append(label[:0], "device-"...), int64(pid-1), 10))
	}
	for tid := range tidNames {
		if tids&(1<<tid) != 0 {
			meta(jw, "thread_name", pid, tid, tidNames[tid])
		}
	}
}

// WriteLifecycle renders an obs.Trace as a request-lifecycle Chrome/Perfetto
// trace: one process per device, one track per request class (plus executor,
// GPU, and client tracks), spans as complete slices and point events as
// thread-scoped instants. Each span carries the id "r<req>.<seq>" (request
// ID plus per-request monotonic counter) when it belongs to a request.
// Output is a deterministic function of the trace: metadata is sorted and
// events keep recorded order, so same-seed runs render byte-identically.
func WriteLifecycle(w io.Writer, tr *obs.Trace) error {
	return WriteLifecycleTimeline(w, tr, nil)
}

// WriteLifecycleTimeline renders the lifecycle trace plus the telemetry
// plane's burn-rate series as Perfetto counter tracks ("C" events on the
// cluster process): one counter per SLO/rule pair, sampled at every retained
// tick, shifted by the timeline's trace offset so the counters overlay the
// run whose alerts were logged. Alert transitions themselves already ride
// the lifecycle trace as telemetry-track instants (Timeline.LogAlerts), so
// the counters and the instants line up. Output stays a deterministic
// function of (trace, timeline): counter keys render in sorted order. A nil
// timeline renders the lifecycle trace alone.
//
// The trace streams to w as it renders. A non-finite burn rate is an error
// reported before anything is written.
func WriteLifecycleTimeline(w io.Writer, tr *obs.Trace, tl *telemetry.Timeline) error {
	if tl == nil {
		return writeLifecycle(w, tr, nil, nil)
	}
	off := int64(tl.TraceOffset())
	return writeLifecycle(w, tr, tl.Burns(), func(i int) int64 { return off + int64(tl.TickTime(tl.Start+i)) })
}

// writeLifecycle renders tr followed by one counter track per burns key,
// in sorted key order; at(i) is the trace time in ns of each series' i-th
// sample.
func writeLifecycle(w io.Writer, tr *obs.Trace, burns map[string][]float64, at func(i int) int64) error {
	keys := make([]string, 0, len(burns))
	for k := range burns {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		for i, v := range burns[k] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("trace: burn rate %q sample %d is %v, which JSON cannot encode", k, i, v)
			}
		}
	}

	var tracks trackSet
	for i := range tr.Spans {
		s := &tr.Spans[i]
		tracks.add(lifecyclePid(s.Device), lifecycleTid(s.Layer, s.Class))
	}
	for i := range tr.Instants {
		p := &tr.Instants[i]
		tracks.add(lifecyclePid(p.Device), lifecycleTid(p.Layer, p.Class))
	}
	jw := newJSONWriter(w)
	tracks.writeMeta(jw)

	for i := range tr.Spans {
		s := &tr.Spans[i]
		begin(jw, s.Name, "X", int64(s.Start), int64(s.End-s.Start), lifecyclePid(s.Device), lifecycleTid(s.Layer, s.Class))
		b := append(jw.buf, `,"args":{`...)
		if s.Req >= 0 {
			b = strconv.AppendInt(append(b, `"id":"r`...), int64(s.Req), 10)
			b = strconv.AppendUint(append(b, '.'), uint64(s.Seq), 10)
			b = append(b, `",`...)
		}
		jw.buf = appendLifecycleArgs(b, s.Req, s.Layer, s.Arg)
		jw.end()
	}
	for i := range tr.Instants {
		p := &tr.Instants[i]
		begin(jw, p.Name, "i", int64(p.At), 0, lifecyclePid(p.Device), lifecycleTid(p.Layer, p.Class))
		jw.buf = appendLifecycleArgs(append(jw.buf, `,"s":"t","args":{`...), p.Req, p.Layer, p.Arg)
		jw.end()
	}
	var name []byte
	for _, k := range keys {
		name = append(append(name[:0], "burn:"...), k...)
		for i, v := range burns[k] {
			begin(jw, name, "C", at(i), 0, 0, 0)
			jw.buf = append(appendFloat(append(jw.buf, `,"args":{"burn":`...), v), '}')
			jw.end()
		}
	}
	return jw.close("olympian lifecycle trace", "one process per device; class, executor, gpu, and client tracks per process")
}

// appendLifecycleArgs finishes a lifecycle event's args object after its
// optional id.
func appendLifecycleArgs(b []byte, req int32, layer obs.Layer, arg int64) []byte {
	b = strconv.AppendInt(append(b, `"req":`...), int64(req), 10)
	b = appendString(append(b, `,"layer":`...), layer.String())
	b = strconv.AppendInt(append(b, `,"arg":`...), arg, 10)
	return append(b, '}')
}

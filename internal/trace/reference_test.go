package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"olympian/internal/core"
	"olympian/internal/obs"
	"olympian/internal/telemetry"
)

// The reference encoder: the writers as they were before streaming, built
// from event structs and encoded by reflection. FuzzLifecycleEncoding and
// the goldens hold the streaming writers byte-identical to it.

type refEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	S    string  `json:"s,omitempty"` // instant scope ("t" = thread)
	Args any     `json:"args,omitempty"`
}

type refNameArgs struct {
	Name string `json:"name"`
}

func refMetaEvent(kind string, pid, tid int, label string) refEvent {
	return refEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid, Args: refNameArgs{Name: label}}
}

type refTraceFile struct {
	TraceEvents     []refEvent        `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	Metadata        map[string]string `json:"otherData,omitempty"`
}

func refWriteChromeTrace(w io.Writer, records []core.QuantumRecord, clientLabels map[int]string) error {
	tf := refTraceFile{
		TraceEvents:     []refEvent{},
		DisplayTimeUnit: "ms",
		Metadata: map[string]string{
			"source": "olympian simulation",
			"format": "one track per client; one slice per scheduling quantum",
		},
	}
	tf.TraceEvents = append(tf.TraceEvents, refMetaEvent("process_name", 0, 0, "olympian"))
	named := map[int]bool{}
	for _, r := range records {
		label := clientLabels[r.Client]
		if label == "" {
			label = fmt.Sprintf("client-%d", r.Client)
		}
		if !named[r.Client] {
			named[r.Client] = true
			tf.TraceEvents = append(tf.TraceEvents, refMetaEvent("thread_name", 0, r.Client, label))
		}
		tf.TraceEvents = append(tf.TraceEvents, refEvent{
			Name: label,
			Ph:   "X",
			Ts:   float64(r.Start) / float64(time.Microsecond),
			Dur:  float64(r.End-r.Start) / float64(time.Microsecond),
			Pid:  0,
			Tid:  r.Client,
			Args: map[string]any{
				"jobID":           r.JobID,
				"gpuDurationUs":   r.GPUDuration.Microseconds(),
				"activeJobs":      r.ActiveJobs,
				"overflowKernels": r.OverflowKernels,
			},
		})
	}
	return json.NewEncoder(w).Encode(tf)
}

func refPidName(pid int) string {
	if pid == 0 {
		return "cluster"
	}
	return fmt.Sprintf("device-%d", pid-1)
}

type refLifecycleArgs struct {
	ID    string `json:"id,omitempty"`
	Req   int64  `json:"req"`
	Layer string `json:"layer"`
	Arg   int64  `json:"arg"`
}

func refSpanArgs(req int32, seq uint32, layer obs.Layer, arg int64) refLifecycleArgs {
	a := refLifecycleArgs{Req: int64(req), Layer: layer.String(), Arg: arg}
	if req >= 0 {
		a.ID = fmt.Sprintf("r%d.%d", req, seq)
	}
	return a
}

func refLifecycleFile(tr *obs.Trace) refTraceFile {
	tf := refTraceFile{
		TraceEvents:     []refEvent{},
		DisplayTimeUnit: "ms",
		Metadata: map[string]string{
			"source": "olympian lifecycle trace",
			"format": "one process per device; class, executor, gpu, and client tracks per process",
		},
	}
	type track struct{ pid, tid int }
	used := map[track]bool{}
	for _, s := range tr.Spans {
		used[track{lifecyclePid(s.Device), lifecycleTid(s.Layer, s.Class)}] = true
	}
	for _, p := range tr.Instants {
		used[track{lifecyclePid(p.Device), lifecycleTid(p.Layer, p.Class)}] = true
	}
	tracks := make([]track, 0, len(used))
	for tk := range used {
		tracks = append(tracks, tk)
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].pid != tracks[j].pid {
			return tracks[i].pid < tracks[j].pid
		}
		return tracks[i].tid < tracks[j].tid
	})
	namedPid := map[int]bool{}
	for _, tk := range tracks {
		if !namedPid[tk.pid] {
			namedPid[tk.pid] = true
			tf.TraceEvents = append(tf.TraceEvents, refMetaEvent("process_name", tk.pid, 0, refPidName(tk.pid)))
		}
		tf.TraceEvents = append(tf.TraceEvents, refMetaEvent("thread_name", tk.pid, tk.tid, tidNames[tk.tid]))
	}

	us := func(t int64) float64 { return float64(t) / float64(time.Microsecond) }
	for _, s := range tr.Spans {
		tf.TraceEvents = append(tf.TraceEvents, refEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   us(int64(s.Start)),
			Dur:  us(int64(s.End - s.Start)),
			Pid:  lifecyclePid(s.Device),
			Tid:  lifecycleTid(s.Layer, s.Class),
			Args: refSpanArgs(s.Req, s.Seq, s.Layer, s.Arg),
		})
	}
	for _, p := range tr.Instants {
		tf.TraceEvents = append(tf.TraceEvents, refEvent{
			Name: p.Name,
			Ph:   "i",
			Ts:   us(int64(p.At)),
			Pid:  lifecyclePid(p.Device),
			Tid:  lifecycleTid(p.Layer, p.Class),
			S:    "t",
			Args: refLifecycleArgs{Req: int64(p.Req), Layer: p.Layer.String(), Arg: p.Arg},
		})
	}
	return tf
}

func refWriteLifecycleTimeline(w io.Writer, tr *obs.Trace, tl *telemetry.Timeline) error {
	if tl == nil {
		return refWriteLifecycleCounters(w, tr, nil, nil)
	}
	off := int64(tl.TraceOffset())
	return refWriteLifecycleCounters(w, tr, tl.Burns(), func(i int) int64 { return off + int64(tl.TickTime(tl.Start+i)) })
}

// refWriteLifecycleCounters is the reference for writeLifecycle: the old
// timeline writer with the timeline's burn series and sample times passed
// in directly, so the fuzzer can choose them.
func refWriteLifecycleCounters(w io.Writer, tr *obs.Trace, burns map[string][]float64, at func(i int) int64) error {
	tf := refLifecycleFile(tr)
	keys := make([]string, 0, len(burns))
	for k := range burns {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	us := func(t int64) float64 { return float64(t) / float64(time.Microsecond) }
	for _, k := range keys {
		name := "burn:" + k
		for i, v := range burns[k] {
			tf.TraceEvents = append(tf.TraceEvents, refEvent{
				Name: name,
				Ph:   "C",
				Ts:   us(at(i)),
				Pid:  0,
				Tid:  0,
				Args: map[string]float64{"burn": v},
			})
		}
	}
	return json.NewEncoder(w).Encode(tf)
}

// Package trace exports scheduling timelines in the Chrome trace-event
// format (the JSON consumed by chrome://tracing and https://ui.perfetto.dev),
// so Olympian's quantum interleaving can be inspected visually — each
// client is a track, each quantum a slice.
package trace

import (
	"io"
	"strconv"

	"olympian/internal/core"
)

// WriteChromeTrace renders scheduling-interval records as a Chrome trace.
// clientLabels optionally maps client ids to track names (e.g. model
// names); unmapped clients get "client-N".
func WriteChromeTrace(w io.Writer, records []core.QuantumRecord, clientLabels map[int]string) error {
	jw := newJSONWriter(w)
	meta(jw, "process_name", 0, 0, "olympian")
	named := map[int]bool{}
	var label []byte
	for _, r := range records {
		if l := clientLabels[r.Client]; l != "" {
			label = append(label[:0], l...)
		} else {
			label = strconv.AppendInt(append(label[:0], "client-"...), int64(r.Client), 10)
		}
		if !named[r.Client] {
			named[r.Client] = true
			meta(jw, "thread_name", 0, r.Client, label)
		}
		begin(jw, label, "X", int64(r.Start), int64(r.End-r.Start), 0, r.Client)
		// Keys in sorted order, as encoding/json renders a map.
		b := strconv.AppendInt(append(jw.buf, `,"args":{"activeJobs":`...), int64(r.ActiveJobs), 10)
		b = strconv.AppendInt(append(b, `,"gpuDurationUs":`...), r.GPUDuration.Microseconds(), 10)
		b = strconv.AppendInt(append(b, `,"jobID":`...), int64(r.JobID), 10)
		b = strconv.AppendInt(append(b, `,"overflowKernels":`...), int64(r.OverflowKernels), 10)
		jw.buf = append(b, '}')
		jw.end()
	}
	return jw.close("olympian simulation", "one track per client; one slice per scheduling quantum")
}
